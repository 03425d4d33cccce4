#include "traced_env.h"

#include <functional>
#include <string_view>

#include "storage/segment.h"

namespace e2ebench {
namespace {

constexpr size_t kClasses = static_cast<size_t>(FileClass::kCount);

// Span names per class, in the order of trace.h (append, sync, read).
SpanName ClassSpan(FileClass c, int op) {
  return static_cast<SpanName>(static_cast<int>(SpanName::kWalAppend) +
                               3 * static_cast<int>(c) + op);
}

std::string_view BaseName(const std::string& path) {
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string_view(path)
                                    : std::string_view(path).substr(slash + 1);
}

void Add(std::atomic<uint64_t>& counter, uint64_t value) {
  counter.fetch_add(value, std::memory_order_relaxed);
}

void RecordSpan(SpanName name, int64_t start, int64_t end) {
  if (!Tracer::enabled()) return;
  Span span;
  span.id = Tracer::NewId();
  span.name = name;
  span.start_ns = start;
  span.end_ns = end;
  Tracer::Record(span);
}

}  // namespace

FileClass ClassifyFile(const std::string& path) {
  const std::string_view name = BaseName(path);
  if (name == "wal.log" ||
      (name.starts_with("shard-") && name.ends_with(".wal"))) {
    return FileClass::kWal;
  }
  if (ttra::IsSegmentFileName(name)) return FileClass::kSegment;
  // The vacuum writes the new manifest aside ("segments.manifest.tmp")
  // and renames it over the old one.
  if (name.starts_with(ttra::kCompactManifestFile) || name == "MANIFEST") {
    return FileClass::kManifest;
  }
  if (name == "coordinator.log") return FileClass::kCoordinator;
  return FileClass::kOther;
}

uint64_t EnvCounters::read_bytes() const {
  uint64_t total = 0;
  for (const ClassCounters& c : by_class) total += c.read_bytes;
  return total;
}

uint64_t EnvCounters::read_ns() const {
  uint64_t total = 0;
  for (const ClassCounters& c : by_class) total += c.read_ns;
  return total;
}

namespace {

/// Applies `op` field by field to two counter sets.
template <typename Op>
EnvCounters Combine(const EnvCounters& a, const EnvCounters& b, Op op) {
  EnvCounters out;
  for (size_t i = 0; i < kClasses; ++i) {
    const ClassCounters& x = a.by_class[i];
    const ClassCounters& y = b.by_class[i];
    out.by_class[i] = {op(x.appends, y.appends),       op(x.append_bytes, y.append_bytes),
                       op(x.append_ns, y.append_ns),   op(x.syncs, y.syncs),
                       op(x.sync_ns, y.sync_ns),       op(x.reads, y.reads),
                       op(x.read_bytes, y.read_bytes), op(x.read_ns, y.read_ns)};
  }
  out.errors = op(a.errors, b.errors);
  return out;
}

}  // namespace

EnvCounters EnvCounters::Minus(const EnvCounters& earlier) const {
  return Combine(*this, earlier, std::minus<uint64_t>());
}

EnvCounters EnvCounters::Plus(const EnvCounters& other) const {
  return Combine(*this, other, std::plus<uint64_t>());
}

ttra::Status TracedEnv::Append(const std::string& path, std::string_view data) {
  const FileClass c = ClassifyFile(path);
  const int64_t start = NowNs();
  ttra::Status status = base_->Append(path, data);
  const int64_t end = NowNs();
  AtomicClass& k = classes_[static_cast<size_t>(c)];
  Add(k.appends, 1);
  Add(k.append_bytes, data.size());
  Add(k.append_ns, static_cast<uint64_t>(end - start));
  if (!status.ok()) Add(errors_, 1);
  RecordSpan(ClassSpan(c, 0), start, end);
  return status;
}

ttra::Status TracedEnv::Sync(const std::string& path) {
  const FileClass c = ClassifyFile(path);
  const int64_t start = NowNs();
  ttra::Status status =
      sync_ == SyncMode::kForward ? base_->Sync(path) : ttra::Status::Ok();
  const int64_t end = NowNs();
  AtomicClass& k = classes_[static_cast<size_t>(c)];
  Add(k.syncs, 1);
  Add(k.sync_ns, static_cast<uint64_t>(end - start));
  if (!status.ok()) Add(errors_, 1);
  RecordSpan(ClassSpan(c, 1), start, end);
  return status;
}

ttra::Result<std::string> TracedEnv::Read(const std::string& path) const {
  const FileClass c = ClassifyFile(path);
  const int64_t start = NowNs();
  ttra::Result<std::string> result = base_->Read(path);
  const int64_t end = NowNs();
  AtomicClass& k = classes_[static_cast<size_t>(c)];
  Add(k.reads, 1);
  Add(k.read_ns, static_cast<uint64_t>(end - start));
  if (result.ok()) {
    Add(k.read_bytes, result->size());
  } else if (base_->Exists(path)) {
    Add(errors_, 1);  // reading an absent file is a probe, not a failure
  }
  RecordSpan(ClassSpan(c, 2), start, end);
  return result;
}

ttra::Status TracedEnv::Meta(ttra::Status status, int64_t start,
                             bool count_error) const {
  RecordSpan(SpanName::kMeta, start, NowNs());
  if (!status.ok() && count_error) Add(errors_, 1);
  return status;
}

ttra::Status TracedEnv::Truncate(const std::string& path) {
  const int64_t start = NowNs();
  return Meta(base_->Truncate(path), start, true);
}

ttra::Status TracedEnv::TruncateTo(const std::string& path, uint64_t size) {
  const int64_t start = NowNs();
  return Meta(base_->TruncateTo(path, size), start, true);
}

ttra::Status TracedEnv::Rename(const std::string& from, const std::string& to) {
  const int64_t start = NowNs();
  return Meta(base_->Rename(from, to), start, true);
}

ttra::Status TracedEnv::Remove(const std::string& path) {
  const int64_t start = NowNs();
  // Cleanup removes files that may not exist; only a file that survives
  // its removal is a failure.
  ttra::Status status = base_->Remove(path);
  return Meta(status, start, !status.ok() && base_->Exists(path));
}

ttra::Result<std::vector<std::string>> TracedEnv::List(
    const std::string& dir) const {
  const int64_t start = NowNs();
  ttra::Result<std::vector<std::string>> result = base_->List(dir);
  Meta(result.ok() ? ttra::Status::Ok() : result.status(), start, true)
      .IgnoreError();
  return result;
}

ttra::Status TracedEnv::CreateDir(const std::string& dir) {
  const int64_t start = NowNs();
  return Meta(base_->CreateDir(dir), start, true);
}

bool TracedEnv::Exists(const std::string& path) const {
  return base_->Exists(path);
}

EnvCounters TracedEnv::counters() const {
  EnvCounters out;
  for (size_t i = 0; i < kClasses; ++i) {
    const AtomicClass& k = classes_[i];
    out.by_class[i] = {k.appends.load(),    k.append_bytes.load(),
                       k.append_ns.load(),  k.syncs.load(),
                       k.sync_ns.load(),    k.reads.load(),
                       k.read_bytes.load(), k.read_ns.load()};
  }
  out.errors = errors_.load();
  return out;
}

}  // namespace e2ebench
