#ifndef FLEXPATH_OBS_FLIGHT_RECORDER_H_
#define FLEXPATH_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace flexpath {

/// What happened. The payload fields (a, b, d) are typed per event:
///   kQueryStart   a=shape fingerprint  b=k
///   kQueryEnd     a=shape fingerprint  b=answers          d=latency_ms
///   kRoundStart   a=round index        b=0                d=penalty
///   kRoundSkip    a=round index (statically pruned)       d=penalty
///   kRoundDiscard a=round index (speculation past the stopping point)
///   kSlowQuery    a=shape fingerprint  b=answers          d=latency_ms
///   kBudgetTrip   a=tuples created     b=max_tuples       d=cpu_ms
enum class FlightEventType : uint8_t {
  kQueryStart,
  kQueryEnd,
  kRoundStart,
  kRoundSkip,
  kRoundDiscard,
  kSlowQuery,
  kBudgetTrip,
};

const char* FlightEventTypeName(FlightEventType type);

/// One decoded ring entry (a Snapshot copy; the ring itself stores the
/// fields as relaxed atomics).
struct FlightEvent {
  uint64_t seq = 0;    ///< Global record sequence number (monotonic).
  uint64_t ts_us = 0;  ///< Microseconds since recorder construction.
  uint32_t tid = 0;    ///< 1 = off-pool thread, worker id + 2 otherwise.
  FlightEventType type = FlightEventType::kQueryStart;
  uint64_t a = 0;
  uint64_t b = 0;
  double d = 0.0;
};

/// A lock-free, fixed-size ring of the last ~4k execution events — the
/// black box that is always on. Record() is a handful of relaxed atomic
/// stores (no locks, no allocation, no syscalls beyond the clock read),
/// cheap enough to call unconditionally from the query pipeline. The ring
/// can be dumped as JSON on demand and — the point of the exercise — from
/// a fatal-signal handler, so a crashed or wedged process leaves its last
/// moments on disk.
///
/// Consistency model: each slot carries a seqlock-style sequence counter;
/// writers bracket their field stores with odd/even counter values and
/// readers discard any slot whose counter moved or is odd. Every field is
/// an atomic with relaxed ordering, so torn slots are *rejected*, never
/// undefined behavior. A reader racing a wrap-around simply loses the
/// overwritten events — acceptable for a flight recorder by design.
class FlightRecorder {
 public:
  /// Ring capacity; power of two so indexing is a mask.
  static constexpr size_t kCapacity = 4096;

  FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder every pipeline component records into.
  static FlightRecorder& Global();

  void Record(FlightEventType type, uint64_t a = 0, uint64_t b = 0,
              double d = 0.0);

  /// Total events ever recorded (>= kCapacity means the ring has wrapped).
  uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

  /// The surviving events, oldest first. In-flight or overwritten slots
  /// are skipped.
  std::vector<FlightEvent> Snapshot() const;

  /// {"recorded":N,"capacity":4096,"events":[{"seq":..,"ts_us":..,
  ///   "tid":..,"type":"query_start","a":..,"b":..,"d":..},...]}
  std::string ToJson() const;

  /// Writes the same JSON to a file descriptor using only async-signal-
  /// safe operations (write(2), lock-free atomics, hand-rolled number
  /// formatting) — callable from a fatal-signal handler.
  void DumpTo(int fd) const;

  /// Empties the ring (test isolation; not thread-safe against Record).
  void Reset();

  /// Installs a handler for SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT that
  /// dumps Global()'s ring to `path` and then re-raises with the default
  /// disposition, so the process still dies with the original signal
  /// (core dumps and exit codes are unchanged). `path` is copied into
  /// static storage; later calls replace it.
  static void InstallCrashHandler(const char* path);

 private:
  struct Slot {
    /// 2*seq+1 while the writer owns the slot, 2*seq+2 once published.
    std::atomic<uint64_t> state{0};
    std::atomic<uint64_t> ts_us{0};
    std::atomic<uint32_t> tid{0};
    std::atomic<uint8_t> type{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
    std::atomic<uint64_t> d_bits{0};  ///< double, bit-cast.
  };

  uint64_t NowUs() const;

  std::array<Slot, kCapacity> slots_;
  std::atomic<uint64_t> next_{0};
  uint64_t base_ns_ = 0;  ///< CLOCK_MONOTONIC at construction.
};

}  // namespace flexpath

#endif  // FLEXPATH_OBS_FLIGHT_RECORDER_H_
