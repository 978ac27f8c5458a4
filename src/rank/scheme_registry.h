#ifndef FLEXPATH_RANK_SCHEME_REGISTRY_H_
#define FLEXPATH_RANK_SCHEME_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/score_algebra.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "rank/score.h"

namespace flexpath {

/// Hard cap on distinct scheme ids (3 built-ins + custom registrations).
/// RankScheme is a uint8_t, and the slot table is a fixed array so the
/// comparator fast path reads it lock-free.
inline constexpr size_t kMaxRankSchemes = 32;

/// The process-wide rank-scheme registry (flexcheck v2, DESIGN.md §16):
/// every scheme the engine will execute — the three Section 4.3.2
/// built-ins and any custom algebra — lives here together with its
/// SchemeCertificate. The optimization sites (threshold pruning, DPO
/// stopping rules) consult the certificate
/// instead of switching on the scheme by name, and Register() refuses
/// algebras the certifier cannot prove sound, so an uncertified scheme
/// can never reach an optimized code path.
class SchemeRegistry {
 public:
  static SchemeRegistry& Global();

  SchemeRegistry(const SchemeRegistry&) = delete;
  SchemeRegistry& operator=(const SchemeRegistry&) = delete;

  /// Certifies `algebra` and installs it under a fresh RankScheme value
  /// (>= 3; the built-in values are pre-registered). Fails with
  /// InvalidArgument — carrying the refuting FX3xx diagnostics — when
  /// the certifier refutes any of its properties, when the name is
  /// empty or already taken, or when the table is full.
  Result<RankScheme> Register(const SchemeAlgebra& algebra);

  /// TEST SEAM — installs `algebra` with `certificate` taken at face
  /// value, bypassing the certifier. Exists so tests can prove the
  /// certifier is load-bearing: forging a permissive certificate for an
  /// unsound scheme makes the optimized paths visibly diverge.
  RankScheme RegisterForTest(const SchemeAlgebra& algebra,
                             SchemeCertificate certificate);

  /// TEST SEAM — replaces the certificate of an installed scheme.
  void ReplaceCertificateForTest(RankScheme scheme,
                                 SchemeCertificate certificate);

  /// The certificate of `scheme`; nullptr when the value is unknown.
  /// The pointer stays valid for the process lifetime. Lock-free.
  const SchemeCertificate* Certificate(RankScheme scheme) const;

  /// The algebra of `scheme`; nullptr when unknown. Lock-free.
  const SchemeAlgebra* Algebra(RankScheme scheme) const;

  /// The registered name of `scheme`; nullptr when unknown. Lock-free.
  const char* Name(RankScheme scheme) const;

  /// Looks a scheme up by registered name.
  std::optional<RankScheme> ByName(std::string_view name) const;

  /// Every registered scheme value, built-ins first, in id order.
  std::vector<RankScheme> Registered() const;

  /// JSON array of SchemeCertificate::ToJson() for every registered
  /// scheme (the CLI --certify payload and the CI artifact).
  std::string CertificatesJson() const;

  /// Comparator fall-through for custom scheme values: true when `a`
  /// ranks strictly before `b` under the registered algebra of `scheme`;
  /// false for unknown values. Lock-free (called from RanksBefore inner
  /// loops).
  static bool RanksBeforeCustom(const AnswerScore& a, const AnswerScore& b,
                                RankScheme scheme);

 private:
  struct Entry {
    SchemeAlgebra algebra;
    SchemeCertificate certificate;
  };

  SchemeRegistry();

  RankScheme Install(const SchemeAlgebra& algebra,
                     SchemeCertificate certificate);

  const Entry* Lookup(RankScheme scheme) const {
    const auto idx = static_cast<size_t>(scheme);
    if (idx >= kMaxRankSchemes) return nullptr;
    return slots_[idx].load(std::memory_order_acquire);
  }

  mutable Mutex mu_;
  size_t next_id_ GUARDED_BY(mu_) = 0;
  /// Published entries; readers go lock-free through the atomics.
  std::array<std::atomic<const Entry*>, kMaxRankSchemes> slots_{};
  /// Owns every entry ever installed, including ones the test seam
  /// replaced — entries are never freed, so outstanding lock-free
  /// readers never see a dangling pointer.
  std::vector<std::unique_ptr<const Entry>> owned_ GUARDED_BY(mu_);
};

}  // namespace flexpath

#endif  // FLEXPATH_RANK_SCHEME_REGISTRY_H_
