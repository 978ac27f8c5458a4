#include "exec/evaluator.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "exec/tuple_rows.h"
#include "rank/scheme_registry.h"

namespace flexpath {

namespace {

/// Exact dominance pruning: tuples that agree on every live binding have
/// identical futures (same remaining predicate outcomes, same keyword
/// chains), so only the lowest-penalty one can contribute a top answer.
/// This keeps independent pattern branches from multiplying the
/// intermediate result — without it, a query with b branches of m
/// matches each materializes m^b tuples per answer instead of b*m.
/// Winners are the first-seen row on penalty ties; survivors keep their
/// order.
void DominancePrune(const std::vector<int>& live_steps, TupleRows* rows) {
  const size_t n = rows->size();
  if (n < 2) return;
  GroupTable groups(n);
  std::vector<uint32_t> winner;  ///< Per group: the row kept.
  winner.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const NodeRef* row = rows->row(i);
    bool inserted = false;
    const uint32_t g = groups.FindOrAdd(
        HashRowKey(row, live_steps),
        [&](uint32_t group) {
          const NodeRef* rep = rows->row(winner[group]);
          for (int s : live_steps) {
            if (rep[s] != row[s]) return false;
          }
          return true;
        },
        &inserted);
    if (inserted) {
      winner.push_back(static_cast<uint32_t>(i));
    } else if (rows->penalty(i) < rows->penalty(winner[g])) {
      winner[g] = static_cast<uint32_t>(i);
    }
  }
  if (groups.size() == n) return;
  std::vector<bool> keep(n, false);
  for (uint32_t i : winner) keep[i] = true;
  rows->Filter([&](size_t i) { return keep[i]; });
}

/// Runs `body(begin, end, out, ctr)` over [0, n) in contiguous chunks on
/// the pool, then concatenates per-chunk outputs and folds per-chunk
/// counters *in chunk-index order*. Because chunk boundaries are a pure
/// function of (n, grain, pool size) and concatenation order equals
/// iteration order, the merged output and counters are byte-identical to
/// one serial body(0, n) pass at any thread count.
///
/// `worker_cpu_ms` accumulates the thread-CPU time chunks burned on pool
/// workers (nothing when the split stays inline — that CPU is already the
/// calling thread's and the caller accounts for it).
template <typename Body>
void ChunkedExtend(ThreadPool* pool, size_t n, size_t grain, TupleRows* out,
                   ExecCounters* ctr, double* worker_cpu_ms,
                   const Body& body) {
  const std::vector<std::pair<size_t, size_t>> ranges =
      ChunkRanges(pool, n, grain);
  if (ranges.empty()) return;
  if (ranges.size() == 1) {
    body(ranges[0].first, ranges[0].second, out, ctr);
    return;
  }
  std::vector<TupleRows> outs(ranges.size(), TupleRows(out->stride()));
  std::vector<ExecCounters> ctrs(ranges.size());
  TaskGroup group(pool);
  for (size_t c = 0; c < ranges.size(); ++c) {
    group.Run([&ranges, &outs, &ctrs, &body, c] {
      body(ranges[c].first, ranges[c].second, &outs[c], &ctrs[c]);
    });
  }
  group.Wait();
  *worker_cpu_ms += group.WorkerCpuMs();
  size_t total = out->size();
  for (const TupleRows& o : outs) total += o.size();
  out->reserve(total);
  for (size_t c = 0; c < ranges.size(); ++c) {
    ctr->Add(ctrs[c]);
    out->AppendAll(outs[c]);
  }
}

/// SSO's two sorts over one tuple block: by score (to find the pruning
/// threshold), then back to binding order for the next join — the
/// paper's score/id tension, whose cost is what score_sorts accounts.
/// Rows with equal bindings are equal in mask and penalty too (both are
/// functions of the bindings), so the result is the block in binding
/// order however the sorts break ties.
void ScoreSortRows(TupleRows* rows) {
  std::vector<uint32_t> order(rows->size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  std::sort(order.begin(), order.end(), [rows](uint32_t a, uint32_t b) {
    return rows->penalty(a) < rows->penalty(b);
  });
  const size_t width = rows->stride();
  std::sort(order.begin(), order.end(), [rows, width](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(rows->row(a), rows->row(a) + width,
                                        rows->row(b), rows->row(b) + width);
  });
  rows->Permute(std::move(order));
}

}  // namespace

void ExecCounters::Add(const ExecCounters& other) {
  // Zip the two VisitFields traversals: both walk in declaration order,
  // so src[i] is the `other` field matching this object's i-th field.
  std::array<const uint64_t*, kFieldCount> src{};
  size_t filled = 0;
  VisitFields(other, [&](const char* /*name*/, const uint64_t& value,
                         Agg /*agg*/) {
    assert(filled < kFieldCount);
    src[filled++] = &value;
  });
  size_t applied = 0;
  VisitFields(*this, [&](const char* /*name*/, uint64_t& value, Agg agg) {
    assert(applied < filled);
    const uint64_t s = *src[applied++];
    value = agg == Agg::kMax ? std::max(value, s) : value + s;
  });
  // The differential half of the accounting lint: the static_assert in
  // the header pins the field count, this pins the visitor to it.
  assert(filled == kFieldCount && applied == kFieldCount &&
         "ExecCounters::VisitFields does not visit every field");
  (void)filled;
  (void)applied;
}

std::vector<RankedAnswer> PlanEvaluator::Evaluate(
    const JoinPlan& plan, EvalMode mode, size_t k, RankScheme scheme,
    double exact_penalty, ExecCounters* counters, TraceCollector* trace,
    ThreadPool* pool, double* worker_cpu_ms) {
  // Work is tallied locally, then folded into the caller's counters and
  // the global registry — so per-call deltas are exact even when the
  // caller accumulates across plan passes.
  ExecCounters ctr;
  ++ctr.plan_passes;
  double pass_worker_cpu_ms = 0.0;

  const Corpus& corpus = index_->corpus();
  const std::vector<PlanStep>& steps = plan.steps();
  assert(!steps.empty());

  // Resolve every contains expression the plan can mention (original
  // query expressions; promoted predicates reuse the same keys).
  std::unordered_map<std::string, std::shared_ptr<const ContainsResult>>
      contains_results;
  {
    Span resolve_span(trace, "resolve_contains");
    for (VarId v : plan.query().Vars()) {
      for (const FtExpr& e : plan.query().node(v).contains) {
        assert(ir_ != nullptr && "plan has contains but no IR engine");
        Span probe_span(trace, "ir_probe");
        std::shared_ptr<const ContainsResult> result = ir_->Evaluate(e);
        std::string key = e.ToString();
        probe_span.Annotate("expr", key);
        probe_span.Annotate("satisfying",
                            static_cast<uint64_t>(result->satisfying().size()));
        contains_results.emplace(std::move(key), std::move(result));
      }
    }
  }
  // Null when the expression was never resolved (its checks then fail).
  auto contains_result = [&](const std::string& key) -> const ContainsResult* {
    auto it = contains_results.find(key);
    return it == contains_results.end() ? nullptr : it->second.get();
  };

  // Every predicate with its operands resolved to plan steps and its
  // contains result to a pointer, once per pass — the inner loop indexes
  // rows and never looks anything up by key.
  struct StepPred {
    PredKind kind;
    size_t x = 0;  ///< Step binding the predicate's first operand.
    size_t y = 0;  ///< Step binding the second (pc/ad only).
    const ContainsResult* contains = nullptr;
    bool optional = false;
    uint64_t bit = 0;  ///< Violation-mask bit (optional only).
    double penalty = 0.0;
  };
  std::vector<int> step_of_var;  ///< VarId -> plan step.
  for (size_t i = 0; i < steps.size(); ++i) {
    const size_t v = static_cast<size_t>(steps[i].var);
    if (step_of_var.size() <= v) step_of_var.resize(v + 1, -1);
    step_of_var[v] = static_cast<int>(i);
  }
  auto step_of = [&](VarId v) {
    assert(static_cast<size_t>(v) < step_of_var.size() &&
           step_of_var[static_cast<size_t>(v)] >= 0);
    return static_cast<size_t>(step_of_var[static_cast<size_t>(v)]);
  };
  std::vector<std::vector<StepPred>> step_preds(steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    for (const PlanPredicate& pp : steps[i].preds) {
      StepPred sp;
      sp.kind = pp.pred.kind;
      if (sp.kind == PredKind::kPc || sp.kind == PredKind::kAd) {
        sp.x = step_of(pp.pred.x);
        sp.y = step_of(pp.pred.y);
      } else if (sp.kind == PredKind::kContains) {
        sp.x = step_of(pp.pred.x);
        sp.contains = contains_result(pp.pred.expr_key);
      }
      sp.optional = pp.optional;
      if (pp.optional) sp.bit = uint64_t{1} << pp.mask_bit;
      sp.penalty = pp.penalty;
      step_preds[i].push_back(sp);
    }
  }

  const bool use_optionals = mode != EvalMode::kExact;
  // Threshold pruning runs only when the scheme's certificate proves it
  // sound (FX301/FX302, DESIGN.md §16): the bound arithmetic below is in
  // ss units with an optimistic keyword bonus of prune_ks_factor x the
  // plan's maximum keyword mass (0 for structure-first, 1 for combined;
  // keyword-first carries no certificate license and never prunes).
  // Unknown scheme values — impossible through TopKProcessor, which
  // validates up front — fall back to the unpruned exact path.
  const SchemeCertificate* cert = SchemeRegistry::Global().Certificate(scheme);
  const bool prune =
      k > 0 && use_optionals && cert != nullptr && cert->threshold_pruning;
  const double ks_bonus =
      prune ? cert->prune_ks_factor * plan.max_keyword_score() : 0.0;
  const size_t dist = static_cast<size_t>(plan.distinguished_step());

  TupleRows tuples(1);  ///< The live tuple block, one row per tuple.

  // Evaluates one predicate of step `s` against the parent row extended
  // by `cand` at `s` (`parent` is null at step 0, whose predicates only
  // mention the root). Null operands fail the predicate.
  auto holds = [&](const StepPred& p, size_t s, const NodeRef* parent,
                   NodeRef cand) {
    auto bind = [&](size_t step) { return step == s ? cand : parent[step]; };
    switch (p.kind) {
      case PredKind::kPc: {
        const NodeRef a = bind(p.x);
        const NodeRef d = bind(p.y);
        if (IsNull(a) || IsNull(d)) return false;
        return corpus.IsParent(a, d);
      }
      case PredKind::kAd: {
        const NodeRef a = bind(p.x);
        const NodeRef d = bind(p.y);
        if (IsNull(a) || IsNull(d)) return false;
        return corpus.IsAncestor(a, d);
      }
      case PredKind::kContains: {
        const NodeRef x = bind(p.x);
        if (IsNull(x) || p.contains == nullptr) return false;
        return p.contains->Satisfies(x);
      }
      case PredKind::kTag:
        return true;  // implicit in the scan list
    }
    return false;
  };
  // Checks step `s`'s predicates for `cand` under `parent`, folding the
  // optional violations into `*mask`/`*penalty` in predicate order; false
  // when a required predicate fails.
  auto check_preds = [&](size_t s, const NodeRef* parent, NodeRef cand,
                         uint64_t* mask, double* penalty) {
    for (const StepPred& p : step_preds[s]) {
      if (holds(p, s, parent, cand)) continue;
      if (!p.optional) return false;
      *mask |= p.bit;
      *penalty += p.penalty;
    }
    return true;
  };

  // Candidate filter shared by all steps: attribute predicates.
  auto attrs_ok = [&](const PlanStep& step, NodeRef ref) {
    for (const AttrPred& ap : step.attr_preds) {
      const std::string* val =
          corpus.DocWithContent(ref.doc).FindAttribute(ref.node, ap.attr);
      if (val == nullptr || !ap.Matches(*val)) return false;
    }
    return true;
  };

  // --- Step 0: seed tuples from the first scan list. -------------------
  {
    const PlanStep& step0 = steps[0];
    Span scan_span(trace, "scan_step");
    scan_span.Annotate("step", uint64_t{0});
    scan_span.Annotate("tag", corpus.tags().Name(step0.tag));
    // The handle pins the list against LRU eviction of merged supertype
    // scans (a plain vector reference would dangle).
    const ScanHandle scan0 = index_->Scan(step0.tag);
    ChunkedExtend(pool, scan0.size(), /*grain=*/1024, &tuples, &ctr,
                  &pass_worker_cpu_ms,
                  [&](size_t begin, size_t end, TupleRows* out,
                      ExecCounters* c) {
                    for (size_t i = begin; i < end; ++i) {
                      const NodeRef ref = scan0[i];
                      ++c->candidates_probed;
                      if (!attrs_ok(step0, ref)) continue;
                      uint64_t mask = 0;
                      double penalty = 0.0;
                      if (!check_preds(0, nullptr, ref, &mask, &penalty)) {
                        continue;
                      }
                      ++c->tuples_created;
                      out->Append(nullptr, ref, mask, penalty);
                    }
                  });
    DominancePrune(plan.LiveSteps(0), &tuples);
    scan_span.Annotate("candidates", ctr.candidates_probed);
    scan_span.Annotate("tuples_out", static_cast<uint64_t>(tuples.size()));
  }

  // Pruning-threshold helper: the k-th best guaranteed (lower-bound)
  // score among distinct answers over the tuples alive after step `s`.
  // Returns -inf when fewer than k distinct answers exist.
  auto prune_bound = [&](size_t s) {
    // The bound must come from distinct *answers*; until the
    // distinguished variable is bound we cannot count answers soundly,
    // so pruning only starts afterwards.
    if (s < dist) return -std::numeric_limits<double>::infinity();
    GroupTable groups;
    std::vector<NodeRef> answer_of;  ///< Per group: the answer node.
    std::vector<double> best_lower;  ///< Per group: its best lower bound.
    const double remaining = plan.MaxRemainingPenalty(s);
    for (size_t i = 0; i < tuples.size(); ++i) {
      const NodeRef answer = tuples.at(i, dist);
      const double lower = plan.base_score() - tuples.penalty(i) - remaining;
      bool inserted = false;
      const uint32_t g = groups.FindOrAdd(
          HashNodeRef(answer),
          [&](uint32_t group) { return answer_of[group] == answer; },
          &inserted);
      if (inserted) {
        answer_of.push_back(answer);
        best_lower.push_back(lower);
      } else if (lower > best_lower[g]) {
        best_lower[g] = lower;
      }
    }
    if (best_lower.size() < k) {
      return -std::numeric_limits<double>::infinity();
    }
    std::nth_element(best_lower.begin(),
                     best_lower.begin() + static_cast<long>(k - 1),
                     best_lower.end(), std::greater<double>());
    return best_lower[k - 1];
  };

  // --- Subsequent steps. ------------------------------------------------
  for (size_t s = 1; s < steps.size(); ++s) {
    const PlanStep& step = steps[s];

    Span step_span(trace, "join_step");
    step_span.Annotate("step", static_cast<uint64_t>(s));
    step_span.Annotate("tag", corpus.tags().Name(step.tag));
    step_span.Annotate("tuples_in", static_cast<uint64_t>(tuples.size()));
    const uint64_t candidates_before = ctr.candidates_probed;
    const uint64_t pruned_before = ctr.tuples_pruned;

    double bound = -std::numeric_limits<double>::infinity();
    if (prune) bound = prune_bound(s - 1);

    const ScanHandle scan = index_->Scan(step.tag);  // Pins the list.

    // Extends row `i` of `tuples` through this step into `out`, tallying
    // work into `c` — chunk-local when running under a pool fan-out, so
    // the chunks never contend and their counters fold back in chunk
    // order. A candidate's row is written only once every required
    // predicate has passed.
    auto extend = [&](size_t i, TupleRows* out, ExecCounters* c) {
      const NodeRef* parent = tuples.row(i);
      const NodeRef anchor = parent[step.anchor_step];
      bool matched = false;
      // In exact mode a variable absent from the round's query needs no
      // binding at all — probing would be wasted work.
      const bool skip_probe = mode == EvalMode::kExact && step.nullable;
      if (!IsNull(anchor) && !skip_probe) {
        const Document& doc = corpus.doc(anchor.doc);
        const NodeSpan& anchor_span = doc.span(anchor.node);
        // Scan entries inside the anchor's interval form a contiguous
        // range beginning right after the anchor itself.
        auto it = std::upper_bound(scan.begin(), scan.end(), anchor);
        for (; it != scan.end(); ++it) {
          if (it->doc != anchor.doc) break;
          const NodeSpan& cand_span = doc.span(it->node);
          if (cand_span.start >= anchor_span.end) break;
          ++c->candidates_probed;
          if (step.anchor_parent_only &&
              cand_span.level != anchor_span.level + 1) {
            continue;
          }
          if (!attrs_ok(step, *it)) continue;
          uint64_t mask = tuples.mask(i);
          double penalty = tuples.penalty(i);
          if (!check_preds(s, parent, *it, &mask, &penalty)) continue;
          matched = true;
          if (prune && plan.base_score() - penalty + ks_bonus < bound) {
            ++c->tuples_pruned;
            continue;
          }
          ++c->tuples_created;
          out->Append(parent, *it, mask, penalty);
        }
      }
      if (!matched && step.nullable) {
        uint64_t mask = tuples.mask(i);
        double penalty = tuples.penalty(i);
        for (const StepPred& p : step_preds[s]) {
          // A nullable step carries only optional predicates, all of
          // which a null binding violates.
          mask |= p.bit;
          penalty += p.penalty;
        }
        if (prune && plan.base_score() - penalty + ks_bonus < bound) {
          ++c->tuples_pruned;
          return;
        }
        ++c->tuples_created;
        out->Append(parent, kNullRef, mask, penalty);
      }
    };

    TupleRows out(s + 1);
    if (mode == EvalMode::kHybridBuckets) {
      // Group by violation mask; within a bucket tuples share their
      // score and stay in document order, so per-bucket processing
      // needs no sorting and whole buckets can be skipped against the
      // bound.
      Span bucket_span(trace, "bucket_merge");
      std::map<uint64_t, std::vector<uint32_t>> buckets;
      for (size_t i = 0; i < tuples.size(); ++i) {
        buckets[tuples.mask(i)].push_back(static_cast<uint32_t>(i));
      }
      ctr.buckets_peak =
          std::max<uint64_t>(ctr.buckets_peak, buckets.size());
      uint64_t buckets_skipped = 0;
      // Surviving buckets flatten (in mask order, document order
      // within) into one work list the pool chunks over; the flat
      // order equals the serial per-bucket iteration order, so the
      // chunked merge reproduces it exactly.
      std::vector<uint32_t> work;
      work.reserve(tuples.size());
      for (const auto& [mask, members] : buckets) {
        const double upper = plan.base_score() - plan.PenaltyOfMask(mask) +
                             ks_bonus;
        if (prune && upper < bound) {
          ctr.tuples_pruned += members.size();
          ++buckets_skipped;
          continue;
        }
        work.insert(work.end(), members.begin(), members.end());
      }
      ChunkedExtend(pool, work.size(), /*grain=*/64, &out, &ctr,
                    &pass_worker_cpu_ms,
                    [&](size_t begin, size_t end, TupleRows* o,
                        ExecCounters* c) {
                      // Most tuples survive a step (match or
                      // null-bind), so one-output-per-input is the
                      // right first guess.
                      o->reserve(o->size() + (end - begin));
                      for (size_t w = begin; w < end; ++w) {
                        extend(work[w], o, c);
                      }
                    });
      bucket_span.Annotate("buckets",
                           static_cast<uint64_t>(buckets.size()));
      bucket_span.Annotate("buckets_skipped", buckets_skipped);
    } else {
      if (mode == EvalMode::kSsoFlat && prune && tuples.size() > k) {
        // SSO's tension: to apply the threshold it sorts the flat tuple
        // list by score, then must restore document order for the next
        // join. Both sorts are real costs we account for.
        Span sort_span(trace, "score_sort");
        sort_span.Annotate("items", static_cast<uint64_t>(tuples.size()));
        ScoreSortRows(&tuples);
        ctr.score_sorts += 2;
        ctr.score_sorted_items += 2 * tuples.size();
      }
      ChunkedExtend(pool, tuples.size(), /*grain=*/64, &out, &ctr,
                    &pass_worker_cpu_ms,
                    [&](size_t begin, size_t end, TupleRows* o,
                        ExecCounters* c) {
                      o->reserve(o->size() + (end - begin));
                      for (size_t i = begin; i < end; ++i) {
                        extend(i, o, c);
                      }
                    });
    }
    DominancePrune(plan.LiveSteps(s), &out);
    tuples = std::move(out);
    step_span.Annotate("candidates", ctr.candidates_probed - candidates_before);
    step_span.Annotate("pruned", ctr.tuples_pruned - pruned_before);
    step_span.Annotate("tuples_out", static_cast<uint64_t>(tuples.size()));
  }

  // --- Finalize: keyword scores, dedup, sort. ---------------------------
  Span finalize_span(trace, "finalize");
  finalize_span.Annotate("tuples", static_cast<uint64_t>(tuples.size()));
  // Keyword-scoring chains with their contains results resolved once.
  struct Chain {
    const ContainsResult* result;
    double weight;
    const std::vector<int>* steps;
  };
  std::vector<Chain> chains;
  for (const JoinPlan::ContainsChain& chain : plan.contains_chains()) {
    const ContainsResult* result = contains_result(chain.expr.ToString());
    if (result != nullptr) {
      chains.push_back(Chain{result, chain.weight, &chain.chain_steps});
    }
  }
  // Score every tuple, dedup by distinguished node (best score kept,
  // first-seen on exact ties) and sort best-first.
  GroupTable groups;
  std::vector<RankedAnswer> answers;  ///< One per group.
  for (size_t i = 0; i < tuples.size(); ++i) {
    const NodeRef* row = tuples.row(i);
    AnswerScore score;
    score.ss = mode == EvalMode::kExact
                   ? plan.base_score() - exact_penalty
                   : plan.base_score() - tuples.penalty(i);
    score.ks = 0.0;
    for (const Chain& chain : chains) {
      for (int cs : *chain.steps) {
        const NodeRef b = row[cs];
        if (IsNull(b)) continue;
        if (chain.result->Satisfies(b)) {
          score.ks += chain.weight * chain.result->BestScoreWithin(b);
          break;
        }
      }
    }
    const NodeRef answer = row[dist];
    assert(!IsNull(answer) && "distinguished variable must be bound");
    bool inserted = false;
    const uint32_t g = groups.FindOrAdd(
        HashNodeRef(answer),
        [&](uint32_t group) { return answers[group].node == answer; },
        &inserted);
    if (inserted) {
      answers.push_back(RankedAnswer{answer, score});
    } else if (RanksBefore(score, answers[g].score, scheme)) {
      answers[g].score = score;
    }
  }
  std::sort(answers.begin(), answers.end(),
            [&](const RankedAnswer& a, const RankedAnswer& b) {
              if (RanksBefore(a.score, b.score, scheme)) return true;
              if (RanksBefore(b.score, a.score, scheme)) return false;
              return a.node < b.node;  // deterministic tie-break
            });
  finalize_span.Annotate("answers", static_cast<uint64_t>(answers.size()));
  finalize_span.Close();

  if (counters != nullptr) counters->Add(ctr);
  if (worker_cpu_ms != nullptr) *worker_cpu_ms += pass_worker_cpu_ms;
  // Mirror the work into the process-wide registry (pointers cached once;
  // one relaxed add per field per plan pass).
  static MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter* m_passes = reg.counter("exec.plan_passes");
  static Counter* m_probed = reg.counter("exec.candidates_probed");
  static Counter* m_created = reg.counter("exec.tuples_created");
  static Counter* m_pruned = reg.counter("exec.tuples_pruned");
  static Counter* m_sorts = reg.counter("exec.score_sorts");
  static Counter* m_sorted = reg.counter("exec.score_sorted_items");
  static Gauge* m_buckets = reg.gauge("exec.buckets_peak");
  m_passes->Inc(ctr.plan_passes);
  m_probed->Inc(ctr.candidates_probed);
  m_created->Inc(ctr.tuples_created);
  m_pruned->Inc(ctr.tuples_pruned);
  m_sorts->Inc(ctr.score_sorts);
  m_sorted->Inc(ctr.score_sorted_items);
  m_buckets->Max(static_cast<int64_t>(ctr.buckets_peak));
  return answers;
}

}  // namespace flexpath
