#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

#include "stats.h"

namespace e2ebench {

std::atomic<bool> Tracer::enabled_{false};
std::atomic<uint64_t> Tracer::next_id_{1};

namespace {

// At most this many spans are kept (about 200 MB); later ones are counted
// as dropped so a long traced run cannot exhaust memory.
constexpr uint64_t kMaxSpans = 4'000'000;

struct Buffer {
  uint32_t thread = 0;
  std::vector<Span> spans;
};

std::mutex g_buffers_mutex;
std::vector<std::shared_ptr<Buffer>> g_buffers;
std::atomic<uint64_t> g_kept{0};
std::atomic<uint64_t> g_dropped{0};

Buffer& ThreadBuffer() {
  thread_local std::shared_ptr<Buffer> buffer;
  if (buffer == nullptr) {
    buffer = std::make_shared<Buffer>();
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    buffer->thread = static_cast<uint32_t>(g_buffers.size());
    g_buffers.push_back(buffer);
  }
  return *buffer;
}

constexpr std::string_view kNames[] = {
    "commit",
    "query",
    "rho",
    "rollback.submit",
    "rollback.checkpoint",
    "rollback.vacuum",
    "rollback.recover",
    "rollback.open_session",
    "rollback.findstate_recent",
    "rollback.findstate_far",
    "lang.parse",
    "lang.analyze",
    "lang.absint",
    "optimizer.rewrite",
    "lang.eval.point",
    "lang.eval.select",
    "lang.eval.join",
    "lang.eval.diff",
    "lang.eval.aggregate",
    "lang.eval.temporal",
    "storage.wal.append",
    "storage.wal.sync",
    "storage.wal.read",
    "storage.segment.append",
    "storage.segment.sync",
    "storage.segment.read",
    "storage.manifest.append",
    "storage.manifest.sync",
    "storage.manifest.read",
    "storage.coordinator.append",
    "storage.coordinator.sync",
    "storage.coordinator.read",
    "storage.other.append",
    "storage.other.sync",
    "storage.other.read",
    "storage.meta",
};
static_assert(std::size(kNames) == static_cast<size_t>(SpanName::kCount));

bool IsWritePathStorage(SpanName name) {
  switch (name) {
    case SpanName::kWalAppend:
    case SpanName::kWalSync:
    case SpanName::kCoordinatorAppend:
    case SpanName::kCoordinatorSync:
      return true;
    default:
      return false;
  }
}

struct Interval {
  int64_t start;
  int64_t end;
};

/// Sorted, disjoint union of the intervals.
std::vector<Interval> Union(std::vector<Interval> in) {
  std::sort(in.begin(), in.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::vector<Interval> out;
  for (const Interval& i : in) {
    if (!out.empty() && i.start <= out.back().end) {
      out.back().end = std::max(out.back().end, i.end);
    } else {
      out.push_back(i);
    }
  }
  return out;
}

/// Length of [start, end) covered by a sorted disjoint union.
int64_t Covered(const std::vector<Interval>& u, int64_t start, int64_t end) {
  auto it = std::upper_bound(
      u.begin(), u.end(), start,
      [](int64_t value, const Interval& i) { return value < i.end; });
  int64_t covered = 0;
  for (; it != u.end() && it->start < end; ++it) {
    covered += std::min(end, it->end) - std::max(start, it->start);
  }
  return covered;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string_view SpanNameString(SpanName name) {
  return kNames[static_cast<size_t>(name)];
}

void Tracer::Record(const Span& span) {
  if (g_kept.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Buffer& buffer = ThreadBuffer();
  buffer.spans.push_back(span);
  buffer.spans.back().thread = buffer.thread;
}

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<Span> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

uint64_t Tracer::dropped() { return g_dropped.load(); }

bool Tracer::WriteTsv(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "name\tid\tparent\trequest\tthread\tstart_ns\tend_ns\n";
  for (const Span& s : spans) {
    out << SpanNameString(s.name) << '\t' << s.id << '\t' << s.parent << '\t'
        << s.request << '\t' << s.thread << '\t' << s.start_ns << '\t'
        << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

TraceReport Summarize(const std::vector<Span>& spans) {
  TraceReport report;
  constexpr size_t kNamesCount = static_cast<size_t>(SpanName::kCount);
  std::vector<std::vector<double>> durations(kNamesCount);
  std::vector<Interval> write_path;
  // Child coverage of query/rho roots, keyed by parent id.
  std::vector<std::pair<uint64_t, Interval>> children;
  for (const Span& s : spans) {
    durations[static_cast<size_t>(s.name)].push_back(
        static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    if (IsWritePathStorage(s.name)) write_path.push_back({s.start_ns, s.end_ns});
    if (s.parent != 0) children.push_back({s.parent, {s.start_ns, s.end_ns}});
  }
  for (size_t i = 0; i < kNamesCount; ++i) {
    report.count[i] = durations[i].size();
    for (double d : durations[i]) report.total_us[i] += d;
    report.median_us[i] = durations[i].empty() ? 0 : Median(durations[i]);
  }
  std::sort(children.begin(), children.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const std::vector<Interval> storage = Union(std::move(write_path));
  for (const Span& s : spans) {
    if (s.name != SpanName::kCommit && s.name != SpanName::kQuery &&
        s.name != SpanName::kRho) {
      continue;
    }
    std::vector<Interval> cover;
    auto it = std::lower_bound(
        children.begin(), children.end(), s.id,
        [](const auto& c, uint64_t id) { return c.first < id; });
    for (; it != children.end() && it->first == s.id; ++it) {
      cover.push_back(it->second);
    }
    const int64_t duration = s.end_ns - s.start_ns;
    int64_t covered = 0;
    if (s.name == SpanName::kCommit) {
      // Storage time already counted, plus the parts of the submit span
      // that do not overlap it.
      covered = Covered(storage, s.start_ns, s.end_ns);
      for (const Interval& c : cover) {
        covered += (c.end - c.start) - Covered(storage, c.start, c.end);
      }
    } else {
      for (const Interval& c : Union(std::move(cover))) {
        covered += std::min(c.end, s.end_ns) - std::max(c.start, s.start_ns);
      }
    }
    const size_t root = static_cast<size_t>(s.name);
    report.root_ns[root] += static_cast<double>(duration);
    report.residual_ns[root] +=
        static_cast<double>(std::max<int64_t>(0, duration - covered));
  }
  return report;
}

}  // namespace e2ebench
