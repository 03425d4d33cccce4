// The wrapping Env: passes every call through to a base Env (PosixEnv in
// the benchmark) and counts and times appends, syncs and reads per file
// class. This is the public storage seam, so the per-layer storage
// numbers come from outside the executors, not from their Stats structs.
// It can also keep syncs from reaching the base's device flush, which is
// how the benchmark stands in for tmpfs on a disk-backed directory.

#ifndef E2EBENCH_TRACED_ENV_H_
#define E2EBENCH_TRACED_ENV_H_

#include <array>
#include <atomic>
#include <string>

#include "storage/env.h"
#include "trace.h"

namespace e2ebench {

enum class FileClass : uint8_t {
  kWal,          // shard-<k>.wal, wal.log
  kSegment,      // seg-*.seg
  kManifest,     // segments.manifest, MANIFEST
  kCoordinator,  // coordinator.log
  kOther,        // checkpoint images, temporaries
  kCount
};

FileClass ClassifyFile(const std::string& path);

/// Totals for one file class. Times are nanoseconds inside the base call.
struct ClassCounters {
  uint64_t appends = 0;
  uint64_t append_bytes = 0;
  uint64_t append_ns = 0;
  uint64_t syncs = 0;
  uint64_t sync_ns = 0;
  uint64_t reads = 0;
  uint64_t read_bytes = 0;
  uint64_t read_ns = 0;
};

struct EnvCounters {
  std::array<ClassCounters, static_cast<size_t>(FileClass::kCount)> by_class{};
  /// Failed calls other than reads of absent files.
  uint64_t errors = 0;

  const ClassCounters& of(FileClass c) const {
    return by_class[static_cast<size_t>(c)];
  }
  uint64_t read_bytes() const;
  uint64_t read_ns() const;
  /// Field-wise difference (this - earlier) and sum.
  EnvCounters Minus(const EnvCounters& earlier) const;
  EnvCounters Plus(const EnvCounters& other) const;
};

/// What Sync does besides being counted and timed.
enum class SyncMode : uint8_t {
  /// Pass it to the base Env (fsync on PosixEnv).
  kForward,
  /// Return OK without calling the base. Appended bytes stay in the page
  /// cache and reach the disk by writeback, as on tmpfs, where fsync has
  /// no device to wait for. A clean Stop() and Start() read the same bytes
  /// either way; only a power loss could tell the two apart.
  kCountOnly,
};

class TracedEnv : public ttra::Env {
 public:
  /// `base` must outlive this env.
  explicit TracedEnv(ttra::Env* base, SyncMode sync = SyncMode::kForward)
      : base_(base), sync_(sync) {}

  ttra::Status Truncate(const std::string& path) override;
  ttra::Status TruncateTo(const std::string& path, uint64_t size) override;
  ttra::Status Append(const std::string& path, std::string_view data) override;
  ttra::Status Sync(const std::string& path) override;
  ttra::Result<std::string> Read(const std::string& path) const override;
  ttra::Status Rename(const std::string& from, const std::string& to) override;
  ttra::Status Remove(const std::string& path) override;
  ttra::Result<std::vector<std::string>> List(
      const std::string& dir) const override;
  ttra::Status CreateDir(const std::string& dir) override;
  bool Exists(const std::string& path) const override;

  /// A consistent-enough snapshot of the counters (each field is read
  /// atomically; callers take deltas around quiescent points).
  EnvCounters counters() const;

 private:
  struct AtomicClass {
    std::atomic<uint64_t> appends{0}, append_bytes{0}, append_ns{0};
    std::atomic<uint64_t> syncs{0}, sync_ns{0};
    std::atomic<uint64_t> reads{0}, read_bytes{0}, read_ns{0};
  };

  /// Records a metadata call's span; counts its failure when asked.
  ttra::Status Meta(ttra::Status status, int64_t start, bool count_error) const;

  ttra::Env* base_;
  const SyncMode sync_;
  mutable std::array<AtomicClass, static_cast<size_t>(FileClass::kCount)>
      classes_;
  mutable std::atomic<uint64_t> errors_{0};
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACED_ENV_H_
