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

/// Establishes the dominance invariant on the block `rows` produced by
/// step `s`: hashes only where the plan says a binding died (kGroups).
/// After a kNone step no two rows can agree on the live bindings, and a
/// kSiblings step already kept one row per parent while extending; Debug
/// builds check both claims by pruning a copy.
void PruneDominated(const JoinPlan& plan, size_t s, TupleRows* rows) {
  if (plan.DominanceAt(s) == Dominance::kGroups) {
    DominancePrune(plan.LiveSteps(s), rows);
    return;
  }
#ifndef NDEBUG
  TupleRows copy = *rows;
  DominancePrune(plan.LiveSteps(s), &copy);
  assert(copy.size() == rows->size() &&
         "a step classified kNone/kSiblings left dominated rows");
#endif
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

/// A predicate of one plan step with its operands resolved to plan
/// steps and its contains result to a pointer, once per pass: the inner
/// loop indexes rows and never looks anything up by key.
struct StepPred {
  PredKind kind;
  size_t x = 0;  ///< Step binding the predicate's first operand.
  size_t y = 0;  ///< Step binding the second (pc/ad only).
  const ContainsResult* contains = nullptr;
  bool optional = false;
  uint64_t bit = 0;  ///< Violation-mask bit (optional only).
  double penalty = 0.0;
};

/// The state of one Evaluate call, shared by its stages: resolve
/// predicates, seed, prune bound, join step, finalize.
struct Pass {
  const JoinPlan& plan;
  const ElementIndex& index;
  const Corpus& corpus;
  const EvalMode mode;
  const size_t k;  ///< Pruning target; 0 disables threshold pruning.
  TraceCollector* const trace;
  ThreadPool* const pool;
  const bool prune;  ///< Threshold pruning on.
  const double ks_bonus;  ///< The bound's optimistic keyword bonus.
  std::unordered_map<std::string, std::shared_ptr<const ContainsResult>>
      contains_results{};
  std::vector<std::vector<StepPred>> step_preds{};  ///< Per plan step.
  TupleRows tuples{1};  ///< The live tuple block, one row per tuple.
  ExecCounters ctr{};
  double worker_cpu_ms = 0.0;

  size_t dist() const { return static_cast<size_t>(plan.distinguished_step()); }

  /// Null when the expression was never resolved (its checks then fail).
  const ContainsResult* ContainsFor(const std::string& key) const {
    auto it = contains_results.find(key);
    return it == contains_results.end() ? nullptr : it->second.get();
  }

  /// Evaluates one predicate of step `s` against the parent row extended
  /// by `cand` at `s` (`parent` is null at step 0, whose predicates only
  /// mention the root). Null operands fail the predicate.
  bool Holds(const StepPred& p, size_t s, const NodeRef* parent,
             NodeRef cand) const {
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
  }

  /// Checks step `s`'s predicates for `cand` under `parent`, folding the
  /// optional violations into `*mask`/`*penalty` in predicate order; false
  /// when a required predicate fails.
  bool CheckPreds(size_t s, const NodeRef* parent, NodeRef cand,
                  uint64_t* mask, double* penalty) const {
    for (const StepPred& p : step_preds[s]) {
      if (Holds(p, s, parent, cand)) continue;
      if (!p.optional) return false;
      *mask |= p.bit;
      *penalty += p.penalty;
    }
    return true;
  }

  /// Candidate filter shared by all steps: attribute predicates.
  bool AttrsOk(const PlanStep& step, NodeRef ref) const {
    for (const AttrPred& ap : step.attr_preds) {
      const std::string* val =
          corpus.DocWithContent(ref.doc).FindAttribute(ref.node, ap.attr);
      if (val == nullptr || !ap.Matches(*val)) return false;
    }
    return true;
  }
};

/// Stage 1: resolves every contains expression the plan can mention
/// (original query expressions; promoted predicates reuse the same keys)
/// and every step predicate's operands.
void ResolvePredicates(Pass* p, IrEngine* ir) {
  {
    Span resolve_span(p->trace, "resolve_contains");
    for (VarId v : p->plan.query().Vars()) {
      for (const FtExpr& e : p->plan.query().node(v).contains) {
        assert(ir != nullptr && "plan has contains but no IR engine");
        Span probe_span(p->trace, "ir_probe");
        std::shared_ptr<const ContainsResult> result = ir->Evaluate(e);
        std::string key = e.ToString();
        probe_span.Annotate("expr", key);
        probe_span.Annotate("satisfying",
                            static_cast<uint64_t>(result->count()));
        p->contains_results.emplace(std::move(key), std::move(result));
      }
    }
  }
  const std::vector<PlanStep>& steps = p->plan.steps();
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
  p->step_preds.resize(steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    for (const PlanPredicate& pp : steps[i].preds) {
      StepPred sp;
      sp.kind = pp.pred.kind;
      if (sp.kind == PredKind::kPc || sp.kind == PredKind::kAd) {
        sp.x = step_of(pp.pred.x);
        sp.y = step_of(pp.pred.y);
      } else if (sp.kind == PredKind::kContains) {
        sp.x = step_of(pp.pred.x);
        sp.contains = p->ContainsFor(pp.pred.expr_key);
      }
      sp.optional = pp.optional;
      if (pp.optional) sp.bit = uint64_t{1} << pp.mask_bit;
      sp.penalty = pp.penalty;
      p->step_preds[i].push_back(sp);
    }
  }
}

/// Stage 2: seeds the tuple block from the first scan list.
void Seed(Pass* p) {
  const PlanStep& step0 = p->plan.steps()[0];
  Span scan_span(p->trace, "scan_step");
  scan_span.Annotate("step", uint64_t{0});
  scan_span.Annotate("tag", p->corpus.tags().Name(step0.tag));
  const auto& scan0 = p->index.Scan(step0.tag);
  const Pass& pass = *p;
  ChunkedExtend(
      p->pool, scan0.size(), /*grain=*/1024, &p->tuples, &p->ctr,
      &p->worker_cpu_ms,
      [&](size_t begin, size_t end, TupleRows* out, ExecCounters* c) {
        for (size_t i = begin; i < end; ++i) {
          const NodeRef ref = scan0[i];
          ++c->candidates_probed;
          uint64_t mask = 0;
          double penalty = 0.0;
          if (!pass.CheckPreds(0, nullptr, ref, &mask, &penalty)) continue;
          // A document that failed to decode seeds nothing, so no row
          // ever probes or binds inside it. Checked after the predicates
          // (contains only, at step 0), which decode nothing: a seed they
          // reject costs no document decode.
          if (!pass.corpus.HasNode(ref) || !pass.AttrsOk(step0, ref)) {
            continue;
          }
          ++c->tuples_created;
          out->Append(nullptr, ref, mask, penalty);
        }
      });
  PruneDominated(p->plan, 0, &p->tuples);
  scan_span.Annotate("candidates", p->ctr.candidates_probed);
  scan_span.Annotate("tuples_out", static_cast<uint64_t>(p->tuples.size()));
}

/// Stage 3, the pruning threshold: the k-th best guaranteed (lower-bound)
/// score among distinct answers over the tuples alive after step `s`;
/// -inf when fewer than k distinct answers exist.
double PruneBound(const Pass& p, size_t s) {
  // The bound must come from distinct *answers*; until the distinguished
  // variable is bound we cannot count answers soundly, so pruning only
  // starts afterwards.
  const size_t dist = p.dist();
  if (s < dist) return -std::numeric_limits<double>::infinity();
  GroupTable groups;
  std::vector<NodeRef> answer_of;  ///< Per group: the answer node.
  std::vector<double> best_lower;  ///< Per group: its best lower bound.
  const double remaining = p.plan.MaxRemainingPenalty(s);
  for (size_t i = 0; i < p.tuples.size(); ++i) {
    const NodeRef answer = p.tuples.at(i, dist);
    const double lower = p.plan.base_score() - p.tuples.penalty(i) - remaining;
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
  if (best_lower.size() < p.k) return -std::numeric_limits<double>::infinity();
  std::nth_element(best_lower.begin(),
                   best_lower.begin() + static_cast<long>(p.k - 1),
                   best_lower.end(), std::greater<double>());
  return best_lower[p.k - 1];
}

/// Hybrid's buckets: groups the live tuples by violation mask. Within a
/// bucket tuples share their score and stay in document order, so a
/// bucket needs no sorting and is skipped whole against `bound`. The
/// surviving buckets flatten, in mask order and document order within,
/// into the work list of the join step; the flat order equals the serial
/// per-bucket order, so the chunked merge reproduces it exactly.
std::vector<uint32_t> SurvivingBuckets(Pass* p, double bound, Span* span) {
  std::map<uint64_t, std::vector<uint32_t>> buckets;
  for (size_t i = 0; i < p->tuples.size(); ++i) {
    buckets[p->tuples.mask(i)].push_back(static_cast<uint32_t>(i));
  }
  p->ctr.buckets_peak = std::max<uint64_t>(p->ctr.buckets_peak, buckets.size());
  uint64_t skipped = 0;
  std::vector<uint32_t> work;
  work.reserve(p->tuples.size());
  for (const auto& [mask, members] : buckets) {
    const double upper =
        p->plan.base_score() - p->plan.PenaltyOfMask(mask) + p->ks_bonus;
    if (p->prune && upper < bound) {
      p->ctr.tuples_pruned += members.size();
      ++skipped;
      continue;
    }
    work.insert(work.end(), members.begin(), members.end());
  }
  span->Annotate("buckets", static_cast<uint64_t>(buckets.size()));
  span->Annotate("buckets_skipped", skipped);
  return work;
}

/// Stage 4: extends every live tuple through plan step `s`, then prunes
/// the dominated rows of the new block.
void JoinStep(Pass* p, size_t s) {
  const PlanStep& step = p->plan.steps()[s];
  Span step_span(p->trace, "join_step");
  step_span.Annotate("step", static_cast<uint64_t>(s));
  step_span.Annotate("tag", p->corpus.tags().Name(step.tag));
  step_span.Annotate("tuples_in", static_cast<uint64_t>(p->tuples.size()));
  const uint64_t candidates_before = p->ctr.candidates_probed;
  const uint64_t pruned_before = p->ctr.tuples_pruned;
  const double bound = p->prune ? PruneBound(*p, s - 1)
                                 : -std::numeric_limits<double>::infinity();

  // The rows to extend: Hybrid's surviving buckets as indexes into the
  // block, or every row in block order.
  const bool hybrid = p->mode == EvalMode::kHybridBuckets;
  Span bucket_span(hybrid ? p->trace : nullptr, "bucket_merge");
  std::vector<uint32_t> work;
  if (hybrid) {
    work = SurvivingBuckets(p, bound, &bucket_span);
  } else if (p->mode == EvalMode::kSsoFlat && p->prune &&
             p->tuples.size() > p->k) {
    // SSO's tension: to apply the threshold it sorts the flat tuple list
    // by score, then must restore document order for the next join. Both
    // sorts are real costs we account for.
    Span sort_span(p->trace, "score_sort");
    sort_span.Annotate("items", static_cast<uint64_t>(p->tuples.size()));
    ScoreSortRows(&p->tuples);
    p->ctr.score_sorts += 2;
    p->ctr.score_sorted_items += 2 * p->tuples.size();
  }
  const size_t n = hybrid ? work.size() : p->tuples.size();

  const Pass& pass = *p;
  const JoinPlan& plan = p->plan;
  const TupleRows& tuples = p->tuples;
  const Corpus& corpus = p->corpus;
  const auto& scan = p->index.Scan(step.tag);
  const bool prune = p->prune;
  const double ks_bonus = p->ks_bonus;
  // In exact mode a variable absent from the round's query needs no
  // binding at all: probing would be wasted work.
  const bool skip_probe = p->mode == EvalMode::kExact && step.nullable;
  // In a kSiblings step the candidates of one parent all collide under
  // dominance, so only the best is written: a strictly lower penalty
  // replaces it, so the first-seen candidate wins ties, as in
  // DominancePrune. tuples_created still counts every candidate that
  // passed the predicates and the threshold.
  const bool best_sibling_only = plan.DominanceAt(s) == Dominance::kSiblings;

  // Extends row `i` of `tuples` through this step into `out`, tallying
  // work into `c`: chunk-local when running under a pool fan-out, so the
  // chunks never contend and their counters fold back in chunk order. A
  // candidate's row is written only once every required predicate has
  // passed. `*cursor` is the chunk's probe position in `scan`, starting
  // at 0: consecutive rows of a chunk mostly anchor at equal or later
  // nodes, so each probe gallops on from the previous one. It depends
  // only on the rows the chunk has extended, so serial and parallel runs
  // agree.
  auto extend = [&](size_t i, size_t* cursor, TupleRows* out,
                    ExecCounters* c) {
    const NodeRef* parent = tuples.row(i);
    const NodeRef anchor = parent[step.anchor_step];
    bool matched = false;
    bool has_best = false;
    NodeRef best = kNullRef;
    uint64_t best_mask = 0;
    double best_penalty = 0.0;
    if (!IsNull(anchor) && !skip_probe) {
      const Document& doc = corpus.doc(anchor.doc);
      const NodeSpan& anchor_span = doc.span(anchor.node);
      // Scan entries inside the anchor's interval form a contiguous range
      // beginning right after the anchor itself.
      *cursor = UpperBoundFrom(scan, anchor, *cursor);
      for (auto it = scan.begin() + static_cast<ptrdiff_t>(*cursor);
           it != scan.end(); ++it) {
        if (it->doc != anchor.doc) break;
        const NodeSpan& cand_span = doc.span(it->node);
        if (cand_span.start >= anchor_span.end) break;
        ++c->candidates_probed;
        if (step.anchor_parent_only &&
            cand_span.level != anchor_span.level + 1) {
          continue;
        }
        if (!pass.AttrsOk(step, *it)) continue;
        uint64_t mask = tuples.mask(i);
        double penalty = tuples.penalty(i);
        if (!pass.CheckPreds(s, parent, *it, &mask, &penalty)) continue;
        matched = true;
        if (prune && plan.base_score() - penalty + ks_bonus < bound) {
          ++c->tuples_pruned;
          continue;
        }
        ++c->tuples_created;
        if (!best_sibling_only) {
          out->Append(parent, *it, mask, penalty);
        } else if (!has_best || penalty < best_penalty) {
          has_best = true;
          best = *it;
          best_mask = mask;
          best_penalty = penalty;
        }
      }
      if (has_best) out->Append(parent, best, best_mask, best_penalty);
    }
    if (!matched && step.nullable) {
      uint64_t mask = tuples.mask(i);
      double penalty = tuples.penalty(i);
      for (const StepPred& sp : pass.step_preds[s]) {
        // A nullable step carries only optional predicates, all of which
        // a null binding violates.
        mask |= sp.bit;
        penalty += sp.penalty;
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
  ChunkedExtend(p->pool, n, /*grain=*/64, &out, &p->ctr, &p->worker_cpu_ms,
                [&](size_t begin, size_t end, TupleRows* o, ExecCounters* c) {
                  // Most tuples survive a step (match or null-bind), so
                  // one output per input is the right first guess.
                  o->reserve(o->size() + (end - begin));
                  size_t cursor = 0;
                  for (size_t w = begin; w < end; ++w) {
                    extend(hybrid ? work[w] : w, &cursor, o, c);
                  }
                });
  bucket_span.Close();
  PruneDominated(plan, s, &out);
  p->tuples = std::move(out);
  step_span.Annotate("candidates",
                     p->ctr.candidates_probed - candidates_before);
  step_span.Annotate("pruned", p->ctr.tuples_pruned - pruned_before);
  step_span.Annotate("tuples_out", static_cast<uint64_t>(p->tuples.size()));
}

/// Stage 5: scores every tuple (keyword chains included), dedups by
/// distinguished node (best score kept, first-seen on exact ties) and
/// sorts best-first. kExact scores every tuple `exact_penalty` below the
/// base score.
std::vector<RankedAnswer> Finalize(const Pass& p, RankScheme scheme,
                                   double exact_penalty) {
  Span finalize_span(p.trace, "finalize");
  finalize_span.Annotate("tuples", static_cast<uint64_t>(p.tuples.size()));
  // Keyword-scoring chains with their contains results resolved once.
  struct Chain {
    const ContainsResult* result;
    double weight;
    const std::vector<int>* steps;
  };
  std::vector<Chain> chains;
  for (const JoinPlan::ContainsChain& chain : p.plan.contains_chains()) {
    const ContainsResult* result = p.ContainsFor(chain.expr.ToString());
    if (result != nullptr) {
      chains.push_back(Chain{result, chain.weight, &chain.chain_steps});
    }
  }
  const size_t dist = p.dist();
  GroupTable groups;
  std::vector<RankedAnswer> answers;  ///< One per group.
  for (size_t i = 0; i < p.tuples.size(); ++i) {
    const NodeRef* row = p.tuples.row(i);
    AnswerScore score;
    score.ss = p.mode == EvalMode::kExact
                   ? p.plan.base_score() - exact_penalty
                   : p.plan.base_score() - p.tuples.penalty(i);
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
  return answers;
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
  assert(!plan.steps().empty());
  // Threshold pruning runs only where the scheme's kSchemeTable row
  // allows it (DESIGN.md §16): the bound arithmetic is in ss units with
  // an optimistic keyword bonus of prune_ks_factor x the plan's maximum
  // keyword mass (0 for structure-first, 1 for combined; keyword-first
  // never prunes). Scheme values outside RankScheme — impossible through
  // TopKProcessor, which validates up front — fall back to the unpruned
  // exact path.
  const SchemeCertificate* cert = SchemeRegistry::Global().Certificate(scheme);
  const bool prune = k > 0 && mode != EvalMode::kExact && cert != nullptr &&
                     cert->threshold_pruning;
  // Work is tallied in the pass, then folded into the caller's counters,
  // so per-call deltas are exact even when the caller accumulates across
  // plan passes.
  Pass p{.plan = plan,
         .index = *index_,
         .corpus = index_->corpus(),
         .mode = mode,
         .k = k,
         .trace = trace,
         .pool = pool,
         .prune = prune,
         .ks_bonus =
             prune ? cert->prune_ks_factor * plan.max_keyword_score() : 0.0};
  ++p.ctr.plan_passes;
  ResolvePredicates(&p, ir_);
  Seed(&p);
  for (size_t s = 1; s < plan.steps().size(); ++s) JoinStep(&p, s);
  std::vector<RankedAnswer> answers = Finalize(p, scheme, exact_penalty);
  if (counters != nullptr) counters->Add(p.ctr);
  if (worker_cpu_ms != nullptr) *worker_cpu_ms += p.worker_cpu_ms;
  return answers;
}

}  // namespace flexpath
