// In-memory span recorder for the traced run. Spans are recorded at the
// boundaries the benchmark sees from outside the program: its own calls
// into each module's public functions, and every call through the
// wrapping Env (traced_env.h). Nothing is recorded while tracing is off,
// so the untraced run pays one relaxed atomic load per boundary.

#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// Every span name. Roots are whole user requests; the rest are the layer
/// calls inside them (or, for storage, calls on the executor's threads).
enum class SpanName : uint16_t {
  // Request roots.
  kCommit,  // submit -> ack (open loop: due -> ack)
  kQuery,   // query text -> result
  kRho,     // direct Session::Rollback request
  // rollback
  kSubmit,
  kCheckpoint,
  kVacuum,
  kRecover,
  kOpenSession,
  kFindStateRecent,
  kFindStateFar,
  // lang / optimizer
  kParse,
  kAnalyze,
  kAbsint,
  kRewrite,
  kEvalPoint,
  kEvalSelect,
  kEvalJoin,
  kEvalDiff,
  kEvalAggregate,
  kEvalTemporal,
  // storage, by file class and call
  kWalAppend,
  kWalSync,
  kWalRead,
  kSegmentAppend,
  kSegmentSync,
  kSegmentRead,
  kManifestAppend,
  kManifestSync,
  kManifestRead,
  kCoordinatorAppend,
  kCoordinatorSync,
  kCoordinatorRead,
  kOtherAppend,
  kOtherSync,
  kOtherRead,
  kMeta,  // truncate, rename, remove, list, mkdir
  kCount
};

std::string_view SpanNameString(SpanName name);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // spans of one request share it; 0 = none
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanName name = SpanName::kCount;
  uint32_t thread = 0;
};

class Tracer {
 public:
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static uint64_t NewId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Appends to the calling thread's buffer (no lock after first use).
  static void Record(const Span& span);
  /// Every recorded span, in no particular order. Call only once every
  /// recording thread has been joined.
  static std::vector<Span> Collect();
  /// Spans dropped because the in-memory cap was reached.
  static uint64_t dropped();
  /// Writes spans as TSV (name, id, parent, request, thread, start, end).
  static bool WriteTsv(const std::vector<Span>& spans, const std::string& path);

 private:
  static std::atomic<bool> enabled_;
  static std::atomic<uint64_t> next_id_;
};

/// Records one span from construction to destruction when tracing is on
/// at construction.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name, uint64_t parent = 0, uint64_t request = 0)
      : on_(Tracer::enabled()) {
    if (on_) {
      span_.id = Tracer::NewId();
      span_.parent = parent;
      span_.request = request;
      span_.name = name;
      span_.start_ns = NowNs();
    }
  }
  ~ScopedSpan() {
    if (on_) {
      span_.end_ns = NowNs();
      Tracer::Record(span_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
  Span span_;
};

/// Per-name duration summaries and the residual of request roots.
struct TraceReport {
  /// Median duration in microseconds per span name (0 when absent).
  double median_us[static_cast<size_t>(SpanName::kCount)] = {};
  uint64_t count[static_cast<size_t>(SpanName::kCount)] = {};
  /// Summed duration in microseconds per span name.
  double total_us[static_cast<size_t>(SpanName::kCount)] = {};
  /// Request-root time, and the part of it no child span covers, per
  /// root name (kCommit, kQuery, kRho), in nanoseconds. Query and rho
  /// roots count their own child spans; commit roots count their submit
  /// span plus any write-path storage call (on any thread) that overlaps
  /// them, since the writer's work is not linked to a request.
  double root_ns[3] = {};
  double residual_ns[3] = {};
};

TraceReport Summarize(const std::vector<Span>& spans);

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
