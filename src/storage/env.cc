#include "storage/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace ttra {

namespace {

Status Errno(const std::string& op, const std::string& path) {
  return IoError(op + " failed for " + path + ": " + std::strerror(errno));
}

/// Directory part of `path` ("" if none).
std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status FsyncPath(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) return Errno("open for fsync", path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync", path);
  return Status::Ok();
}

}  // namespace

// --- PosixEnv --------------------------------------------------------------

PosixEnv::~PosixEnv() {
  for (auto& [path, fd] : fds_) ::close(fd);
}

Result<int> PosixEnv::OpenForAppendLocked(const std::string& path) {
  auto it = fds_.find(path);
  if (it != fds_.end()) return it->second;
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) return Errno("open", path);
  fds_[path] = fd;
  return fd;
}

void PosixEnv::DropFdLocked(const std::string& path) {
  auto it = fds_.find(path);
  if (it != fds_.end()) {
    ::close(it->second);
    fds_.erase(it);
  }
}

Status PosixEnv::Truncate(const std::string& path) {
  MutexLock lock(mutex_);
  DropFdLocked(path);
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return Errno("truncate", path);
  fds_[path] = fd;  // O_WRONLY fd still appends correctly: offset is at 0
  return Status::Ok();
}

Status PosixEnv::TruncateTo(const std::string& path, uint64_t size) {
  {
    MutexLock lock(mutex_);
    // The cached descriptor is O_APPEND, so later appends land after the
    // cut regardless, but drop it anyway: its idea of the file is stale.
    DropFdLocked(path);
  }
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return Errno("stat", path);
  if (static_cast<uint64_t>(st.st_size) < size) {
    return InvalidArgumentError("truncate-to beyond end of " + path);
  }
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Errno("truncate", path);
  }
  // Make the new length durable before anyone appends after the cut.
  return FsyncPath(path, O_WRONLY);
}

Status PosixEnv::Append(const std::string& path, std::string_view data) {
  MutexLock lock(mutex_);
  TTRA_ASSIGN_OR_RETURN(int fd, OpenForAppendLocked(path));
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path);
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status PosixEnv::Sync(const std::string& path) {
  MutexLock lock(mutex_);
  TTRA_ASSIGN_OR_RETURN(int fd, OpenForAppendLocked(path));
  if (::fsync(fd) != 0) return Errno("fsync", path);
  return Status::Ok();
}

Result<std::string> PosixEnv::Read(const std::string& path) const {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Errno("open for read", path);
  std::string out;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Errno("read", path);
    }
    if (n == 0) break;
    out.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

Status PosixEnv::Rename(const std::string& from, const std::string& to) {
  {
    MutexLock lock(mutex_);
    DropFdLocked(from);
    DropFdLocked(to);
  }
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return Errno("rename", from + " -> " + to);
  }
  // The rename is only durable once the directory entry is on disk.
  return FsyncPath(DirName(to), O_RDONLY | O_DIRECTORY);
}

Status PosixEnv::Remove(const std::string& path) {
  {
    MutexLock lock(mutex_);
    DropFdLocked(path);
  }
  if (::unlink(path.c_str()) != 0) return Errno("unlink", path);
  return Status::Ok();
}

Status PosixEnv::SyncDir(const std::string& dir) {
  return FsyncPath(dir, O_RDONLY | O_DIRECTORY);
}

Result<std::vector<std::string>> PosixEnv::List(const std::string& dir) const {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Errno("opendir", dir);
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

Status PosixEnv::CreateDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Errno("mkdir", dir);
  }
  return FsyncPath(DirName(dir), O_RDONLY | O_DIRECTORY);
}

bool PosixEnv::Exists(const std::string& path) const {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status Env::SyncDir(const std::string& /*dir*/) { return Status::Ok(); }

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

// --- InMemoryEnv -----------------------------------------------------------

InMemoryEnv::FileState& InMemoryEnv::FileLocked(const std::string& path) {
  auto [it, created] = files_.try_emplace(path);
  if (created) it->second.entry_durable = !require_dir_sync_;
  return it->second;
}

void InMemoryEnv::SyncDirLocked(const std::string& dir) {
  for (auto& [path, file] : files_) {
    if (DirName(path) == dir) file.entry_durable = true;
  }
  std::erase_if(unsynced_removes_,
                [&](const auto& entry) { return DirName(entry.first) == dir; });
}

Status InMemoryEnv::Truncate(const std::string& path) {
  MutexLock lock(mutex_);
  FileState& file = FileLocked(path);
  file.data.clear();
  file.synced_size = 0;
  return Status::Ok();
}

Status InMemoryEnv::TruncateTo(const std::string& path, uint64_t size) {
  MutexLock lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return IoError("no such file: " + path);
  FileState& file = it->second;
  if (size > file.data.size()) {
    return InvalidArgumentError("truncate-to beyond end of " + path);
  }
  file.data.resize(size);
  file.synced_size = std::min<size_t>(file.synced_size, size);
  return Status::Ok();
}

Status InMemoryEnv::Append(const std::string& path, std::string_view data) {
  MutexLock lock(mutex_);
  FileLocked(path).data.append(data);
  return Status::Ok();
}

Status InMemoryEnv::Sync(const std::string& path) {
  MutexLock lock(mutex_);
  FileState& file = FileLocked(path);
  file.synced_size = file.data.size();
  return Status::Ok();
}

Result<std::string> InMemoryEnv::Read(const std::string& path) const {
  MutexLock lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return IoError("no such file: " + path);
  return it->second.data;
}

Status InMemoryEnv::Rename(const std::string& from, const std::string& to) {
  MutexLock lock(mutex_);
  auto it = files_.find(from);
  if (it == files_.end()) return IoError("no such file: " + from);
  FileState moved = std::move(it->second);
  // Rename is modeled as durable (the POSIX backend fsyncs the directory),
  // so the moved content survives a crash in full.
  moved.synced_size = moved.data.size();
  moved.entry_durable = true;
  files_.erase(it);
  files_[to] = std::move(moved);
  // The fsync of the directory records every other entry in it as well.
  SyncDirLocked(DirName(to));
  return Status::Ok();
}

Status InMemoryEnv::Remove(const std::string& path) {
  MutexLock lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return IoError("no such file: " + path);
  if (require_dir_sync_ && it->second.entry_durable) {
    FileState survivor = std::move(it->second);
    survivor.data.resize(survivor.synced_size);
    unsynced_removes_.try_emplace(path, std::move(survivor));
  }
  files_.erase(it);
  return Status::Ok();
}

Status InMemoryEnv::SyncDir(const std::string& dir) {
  MutexLock lock(mutex_);
  SyncDirLocked(dir);
  return Status::Ok();
}

Result<std::vector<std::string>> InMemoryEnv::List(
    const std::string& dir) const {
  MutexLock lock(mutex_);
  const std::string prefix = dir.empty() || dir.back() == '/' ? dir : dir + "/";
  std::vector<std::string> names;
  for (const auto& [path, file] : files_) {
    if (path.rfind(prefix, 0) == 0) {
      const std::string rest = path.substr(prefix.size());
      if (rest.find('/') == std::string::npos) names.push_back(rest);
    }
  }
  return names;
}

Status InMemoryEnv::CreateDir(const std::string& dir) {
  MutexLock lock(mutex_);
  if (std::find(dirs_.begin(), dirs_.end(), dir) == dirs_.end()) {
    dirs_.push_back(dir);
  }
  return Status::Ok();
}

bool InMemoryEnv::Exists(const std::string& path) const {
  MutexLock lock(mutex_);
  return files_.count(path) > 0 ||
         std::find(dirs_.begin(), dirs_.end(), path) != dirs_.end();
}

void InMemoryEnv::DropUnsynced() {
  MutexLock lock(mutex_);
  std::erase_if(files_,
                [](const auto& entry) { return !entry.second.entry_durable; });
  for (auto& [path, file] : unsynced_removes_) {
    files_.insert_or_assign(path, std::move(file));
  }
  unsynced_removes_.clear();
  for (auto& [path, file] : files_) {
    file.data.resize(file.synced_size);
  }
}

// --- FaultInjectionEnv -----------------------------------------------------

void FaultInjectionEnv::ArmPlan(uint64_t seed, const FaultPlanOptions& plan) {
  MutexLock lock(mutex_);
  plan_rng_.emplace(seed);
  plan_ = plan;
  transient_remaining_ = 0;
}

void FaultInjectionEnv::DisarmPlan() {
  MutexLock lock(mutex_);
  plan_rng_.reset();
  transient_remaining_ = 0;
}

bool FaultInjectionEnv::NextOpFaults(FaultMode* mode) {
  MutexLock lock(mutex_);
  ++op_count_;
  if (fault_at_ != 0 && op_count_ >= fault_at_) {
    fault_at_ = 0;  // one-shot
    triggered_ = true;
    if (mode != nullptr) *mode = mode_;
    return true;
  }
  if (plan_rng_.has_value()) {
    if (transient_remaining_ > 0) {
      // Inside an EIO burst: keep failing until it runs out.
      --transient_remaining_;
      ++plan_stats_.transient_failures;
      if (mode != nullptr) *mode = FaultMode::kFailOp;
      return true;
    }
    if (plan_.transient_error_rate > 0.0 &&
        plan_rng_->Bernoulli(plan_.transient_error_rate)) {
      const uint64_t max_burst = std::max<uint32_t>(1, plan_.max_transient_burst);
      transient_remaining_ =
          static_cast<uint32_t>(plan_rng_->Uniform(max_burst));  // burst - 1
      ++plan_stats_.transient_failures;
      if (mode != nullptr) *mode = FaultMode::kFailOp;
      return true;
    }
  }
  return false;
}

void FaultInjectionEnv::MaybeDamageForRead(const std::string& path) {
  MutexLock lock(mutex_);
  if (!plan_rng_.has_value()) return;
  auto it = files_.find(path);
  if (it == files_.end() || it->second.data.empty()) return;
  FileState& file = it->second;
  if (plan_.read_bit_flip_rate > 0.0 &&
      plan_rng_->Bernoulli(plan_.read_bit_flip_rate)) {
    const uint64_t offset = plan_rng_->Uniform(file.data.size());
    file.data[offset] ^= static_cast<char>(1u << plan_rng_->Uniform(8));
    ++plan_stats_.bit_flips;
    damage_log_.push_back(DamageEvent{path, offset, 1});
  }
  if (plan_.read_truncate_rate > 0.0 && !file.data.empty() &&
      plan_rng_->Bernoulli(plan_.read_truncate_rate)) {
    const uint64_t keep = plan_rng_->Uniform(file.data.size());
    const uint64_t lost = file.data.size() - keep;
    file.data.resize(keep);
    file.synced_size = std::min<size_t>(file.synced_size, file.data.size());
    ++plan_stats_.media_truncations;
    damage_log_.push_back(DamageEvent{path, keep, lost});
  }
}

Status FaultInjectionEnv::Truncate(const std::string& path) {
  if (NextOpFaults()) return IoError("injected fault: truncate " + path);
  return InMemoryEnv::Truncate(path);
}

Status FaultInjectionEnv::TruncateTo(const std::string& path, uint64_t size) {
  if (NextOpFaults()) return IoError("injected fault: truncate-to " + path);
  return InMemoryEnv::TruncateTo(path, size);
}

Status FaultInjectionEnv::Append(const std::string& path,
                                 std::string_view data) {
  FaultMode mode = FaultMode::kFailOp;
  if (NextOpFaults(&mode)) {
    if (mode == FaultMode::kTornAppend && !data.empty()) {
      // Half the record reaches the file: a torn write. The half-append's
      // own status is irrelevant — the op is reported failed regardless.
      InMemoryEnv::Append(path, data.substr(0, data.size() / 2))
          .IgnoreError();
    }
    return IoError("injected fault: append " + path);
  }
  {
    MutexLock lock(mutex_);
    if (plan_rng_.has_value()) {
      if (plan_.capacity_bytes > 0) {
        uint64_t total = 0;
        for (const auto& [p, file] : files_) total += file.data.size();
        if (total + data.size() > plan_.capacity_bytes) {
          ++plan_stats_.enospc_failures;
          return ResourceExhaustedError("no space left on device: " + path);
        }
      }
      if (plan_.torn_append_rate > 0.0 && !data.empty() &&
          plan_rng_->Bernoulli(plan_.torn_append_rate)) {
        // A strict prefix lands; the op still reports failure. TruncateTo
        // back to the pre-append size makes the retry clean.
        const uint64_t landed = plan_rng_->Uniform(data.size());
        FileLocked(path).data.append(data.substr(0, landed));
        ++plan_stats_.torn_appends;
        return IoError("injected torn append: " + path);
      }
    }
  }
  return InMemoryEnv::Append(path, data);
}

Status FaultInjectionEnv::Sync(const std::string& path) {
  if (NextOpFaults()) return IoError("injected fault: sync " + path);
  {
    MutexLock lock(mutex_);
    if (plan_rng_.has_value() && plan_.lying_sync_rate > 0.0 &&
        plan_rng_->Bernoulli(plan_.lying_sync_rate)) {
      // Report success without advancing synced_size: the bytes evaporate
      // at the next Crash() even though the caller was told they are safe.
      ++plan_stats_.lying_syncs;
      return Status::Ok();
    }
  }
  return InMemoryEnv::Sync(path);
}

Result<std::string> FaultInjectionEnv::Read(const std::string& path) const {
  // Reads are not counted ops (the one-shot crash sweep only walks
  // mutations), but the plan's media damage lands before the bytes are
  // served. Damage mutates stored state, hence the const_cast.
  const_cast<FaultInjectionEnv*>(this)->MaybeDamageForRead(path);
  return InMemoryEnv::Read(path);
}

Status FaultInjectionEnv::Rename(const std::string& from,
                                 const std::string& to) {
  if (NextOpFaults()) return IoError("injected fault: rename " + from);
  return InMemoryEnv::Rename(from, to);
}

Status FaultInjectionEnv::Remove(const std::string& path) {
  if (NextOpFaults()) return IoError("injected fault: remove " + path);
  return InMemoryEnv::Remove(path);
}

Status FaultInjectionEnv::SyncDir(const std::string& dir) {
  if (NextOpFaults()) return IoError("injected fault: sync dir " + dir);
  return InMemoryEnv::SyncDir(dir);
}

}  // namespace ttra
