#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <bit>
#include <cstring>
#include <ctime>

#include "common/thread_pool.h"

namespace flexpath {

namespace {

/// Where the crash handler writes; fixed storage because a signal handler
/// cannot touch std::string.
char g_crash_path[512] = {0};

/// Formats `v` in decimal into `buf` (must hold >= 21 bytes); returns the
/// digit count. No snprintf — it is not async-signal-safe.
size_t FormatU64(uint64_t v, char* buf) {
  char tmp[20];
  size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

/// A write(2)-backed buffer usable from a signal handler.
class FdWriter {
 public:
  explicit FdWriter(int fd) : fd_(fd) {}
  ~FdWriter() { Flush(); }

  void Str(const char* s) {
    while (*s != '\0') Byte(*s++);
  }
  void U64(uint64_t v) {
    char buf[21];
    const size_t n = FormatU64(v, buf);
    for (size_t i = 0; i < n; ++i) Byte(buf[i]);
  }
  /// Fixed three decimal places — enough for latency/CPU milliseconds,
  /// and integer-only formatting stays signal-safe.
  void F3(double v) {
    if (v < 0) {
      Byte('-');
      v = -v;
    }
    const uint64_t milli = static_cast<uint64_t>(v * 1000.0 + 0.5);
    U64(milli / 1000);
    Byte('.');
    const uint64_t frac = milli % 1000;
    Byte(static_cast<char>('0' + frac / 100));
    Byte(static_cast<char>('0' + frac / 10 % 10));
    Byte(static_cast<char>('0' + frac % 10));
  }
  void Flush() {
    size_t off = 0;
    while (off < len_) {
      const ssize_t n = write(fd_, buf_ + off, len_ - off);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    len_ = 0;
  }

 private:
  void Byte(char c) {
    if (len_ == sizeof(buf_)) Flush();
    buf_[len_++] = c;
  }

  int fd_;
  char buf_[512];
  size_t len_ = 0;
};

void CrashHandler(int signo) {
  if (g_crash_path[0] != '\0') {
    const int fd =
        open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      FlightRecorder::Global().DumpTo(fd);
      close(fd);
    }
  }
  // SA_RESETHAND restored the default disposition; re-raising kills the
  // process with the original signal, preserving exit status and cores.
  raise(signo);
}

}  // namespace

const char* FlightEventTypeName(FlightEventType type) {
  switch (type) {
    case FlightEventType::kQueryStart:
      return "query_start";
    case FlightEventType::kQueryEnd:
      return "query_end";
    case FlightEventType::kRoundStart:
      return "round_start";
    case FlightEventType::kRoundSkip:
      return "round_skip";
    case FlightEventType::kRoundDiscard:
      return "round_discard";
    case FlightEventType::kSlowQuery:
      return "slow_query";
    case FlightEventType::kBudgetTrip:
      return "budget_trip";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder() {
  timespec ts;
  if (clock_gettime(CLOCK_MONOTONIC, &ts) == 0) {
    base_ns_ = static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
               static_cast<uint64_t>(ts.tv_nsec);
  }
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

uint64_t FlightRecorder::NowUs() const {
  timespec ts;
  if (clock_gettime(CLOCK_MONOTONIC, &ts) != 0) return 0;
  const uint64_t now = static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
                       static_cast<uint64_t>(ts.tv_nsec);
  return (now - base_ns_) / 1000;
}

void FlightRecorder::Record(FlightEventType type, uint64_t a, uint64_t b,
                            double d) {
  const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq & (kCapacity - 1)];
  slot.state.store(2 * seq + 1, std::memory_order_release);
  slot.ts_us.store(NowUs(), std::memory_order_relaxed);
  const int worker = ThreadPool::CurrentWorkerId();
  slot.tid.store(worker < 0 ? 1u : static_cast<uint32_t>(worker) + 2,
                 std::memory_order_relaxed);
  slot.type.store(static_cast<uint8_t>(type), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.d_bits.store(std::bit_cast<uint64_t>(d), std::memory_order_relaxed);
  slot.state.store(2 * seq + 2, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> out;
  const uint64_t end = next_.load(std::memory_order_acquire);
  const uint64_t begin = end > kCapacity ? end - kCapacity : 0;
  out.reserve(static_cast<size_t>(end - begin));
  for (uint64_t seq = begin; seq < end; ++seq) {
    const Slot& slot = slots_[seq & (kCapacity - 1)];
    const uint64_t published = 2 * seq + 2;
    if (slot.state.load(std::memory_order_acquire) != published) continue;
    FlightEvent e;
    e.seq = seq;
    e.ts_us = slot.ts_us.load(std::memory_order_relaxed);
    e.tid = slot.tid.load(std::memory_order_relaxed);
    e.type = static_cast<FlightEventType>(
        slot.type.load(std::memory_order_relaxed));
    e.a = slot.a.load(std::memory_order_relaxed);
    e.b = slot.b.load(std::memory_order_relaxed);
    e.d = std::bit_cast<double>(slot.d_bits.load(std::memory_order_relaxed));
    // A writer that lapped us mid-copy bumped the state; the copy is then
    // a mix of two events, so drop it.
    if (slot.state.load(std::memory_order_acquire) != published) continue;
    out.push_back(e);
  }
  return out;
}

std::string FlightRecorder::ToJson() const {
  const std::vector<FlightEvent> events = Snapshot();
  std::string out = "{\"recorded\":";
  out += std::to_string(recorded());
  out += ",\"capacity\":";
  out += std::to_string(kCapacity);
  out += ",\"events\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    if (i > 0) out += ',';
    out += "{\"seq\":";
    out += std::to_string(e.seq);
    out += ",\"ts_us\":";
    out += std::to_string(e.ts_us);
    out += ",\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"type\":\"";
    out += FlightEventTypeName(e.type);
    out += "\",\"a\":";
    out += std::to_string(e.a);
    out += ",\"b\":";
    out += std::to_string(e.b);
    out += ",\"d\":";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", e.d);
    out += buf;
    out += '}';
  }
  out += "]}";
  return out;
}

void FlightRecorder::DumpTo(int fd) const {
  FdWriter w(fd);
  w.Str("{\"recorded\":");
  w.U64(next_.load(std::memory_order_acquire));
  w.Str(",\"capacity\":");
  w.U64(kCapacity);
  w.Str(",\"events\":[");
  const uint64_t end = next_.load(std::memory_order_acquire);
  const uint64_t begin = end > kCapacity ? end - kCapacity : 0;
  bool first = true;
  for (uint64_t seq = begin; seq < end; ++seq) {
    const Slot& slot = slots_[seq & (kCapacity - 1)];
    const uint64_t published = 2 * seq + 2;
    if (slot.state.load(std::memory_order_acquire) != published) continue;
    if (!first) w.Str(",");
    first = false;
    w.Str("{\"seq\":");
    w.U64(seq);
    w.Str(",\"ts_us\":");
    w.U64(slot.ts_us.load(std::memory_order_relaxed));
    w.Str(",\"tid\":");
    w.U64(slot.tid.load(std::memory_order_relaxed));
    w.Str(",\"type\":\"");
    w.Str(FlightEventTypeName(static_cast<FlightEventType>(
        slot.type.load(std::memory_order_relaxed))));
    w.Str("\",\"a\":");
    w.U64(slot.a.load(std::memory_order_relaxed));
    w.Str(",\"b\":");
    w.U64(slot.b.load(std::memory_order_relaxed));
    w.Str(",\"d\":");
    w.F3(std::bit_cast<double>(
        slot.d_bits.load(std::memory_order_relaxed)));
    w.Str("}");
  }
  w.Str("]}\n");
  w.Flush();
}

void FlightRecorder::Reset() {
  next_.store(0, std::memory_order_relaxed);
  for (Slot& slot : slots_) {
    slot.state.store(0, std::memory_order_relaxed);
  }
}

void FlightRecorder::InstallCrashHandler(const char* path) {
  std::strncpy(g_crash_path, path, sizeof(g_crash_path) - 1);
  g_crash_path[sizeof(g_crash_path) - 1] = '\0';
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &CrashHandler;
  sigemptyset(&sa.sa_mask);
  // One shot: the handler runs once, the disposition reverts to default,
  // and the re-raise terminates — a fault inside the handler cannot loop.
  sa.sa_flags = SA_RESETHAND;
  for (int signo : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    sigaction(signo, &sa, nullptr);
  }
}

}  // namespace flexpath
