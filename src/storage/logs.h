#ifndef TTRA_STORAGE_LOGS_H_
#define TTRA_STORAGE_LOGS_H_

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

#include "storage/state_log.h"
#include "util/mutex.h"

namespace ttra {

/// Small thread-safe LRU of reconstructed states, keyed by entry index.
/// The replay-based engines (delta/checkpoint/reverse-delta) consult it so
/// repeated FINDSTATE reads of the same or nearby transactions skip the
/// replay; readers may probe one log concurrently (SerialExecutor holds
/// only a shared lock), hence the internal mutex. Cached states are
/// immutable and shared, so Clone copies the cache by reference.
/// A capacity of 0 disables caching entirely.
template <typename StateT>
class FindStateCache {
 public:
  explicit FindStateCache(size_t capacity) : capacity_(capacity) {}

  FindStateCache(const FindStateCache& other) : capacity_(other.capacity_) {
    MutexLock lock(other.mutex_);
    slots_ = other.slots_;
    clock_ = other.clock_;
  }
  FindStateCache& operator=(const FindStateCache&) = delete;

  size_t capacity() const { return capacity_; }

  /// The cached state for exactly `index`, or nullptr.
  std::shared_ptr<const StateT> Get(size_t index) const {
    MutexLock lock(mutex_);
    for (Slot& slot : slots_) {
      if (slot.index == index) {
        slot.stamp = ++clock_;
        return slot.state;
      }
    }
    return nullptr;
  }

  /// The cached entry with the greatest index <= `index` (replay seed for
  /// forward-delta engines), or nullopt.
  std::optional<std::pair<size_t, std::shared_ptr<const StateT>>> Floor(
      size_t index) const {
    MutexLock lock(mutex_);
    Slot* best = nullptr;
    for (Slot& slot : slots_) {
      if (slot.index <= index && (best == nullptr || slot.index > best->index)) {
        best = &slot;
      }
    }
    if (best == nullptr) return std::nullopt;
    best->stamp = ++clock_;
    return std::make_pair(best->index, best->state);
  }

  /// The cached entry with the least index >= `index` (replay seed for the
  /// backward-walking reverse-delta engine), or nullopt.
  std::optional<std::pair<size_t, std::shared_ptr<const StateT>>> Ceil(
      size_t index) const {
    MutexLock lock(mutex_);
    Slot* best = nullptr;
    for (Slot& slot : slots_) {
      if (slot.index >= index && (best == nullptr || slot.index < best->index)) {
        best = &slot;
      }
    }
    if (best == nullptr) return std::nullopt;
    best->stamp = ++clock_;
    return std::make_pair(best->index, best->state);
  }

  void Put(size_t index, std::shared_ptr<const StateT> state) const {
    if (capacity_ == 0) return;
    MutexLock lock(mutex_);
    Slot* victim = nullptr;
    for (Slot& slot : slots_) {
      if (slot.index == index) {
        slot.state = std::move(state);
        slot.stamp = ++clock_;
        return;
      }
      if (victim == nullptr || slot.stamp < victim->stamp) victim = &slot;
    }
    if (slots_.size() < capacity_) {
      slots_.push_back(Slot{index, std::move(state), ++clock_});
      return;
    }
    *victim = Slot{index, std::move(state), ++clock_};
  }

  /// Invalidates everything (called on Append/ReplaceLast and by vacuum's
  /// rebuild, which starts from a fresh log anyway).
  void Clear() const {
    MutexLock lock(mutex_);
    slots_.clear();
  }

 private:
  struct Slot {
    size_t index = 0;
    std::shared_ptr<const StateT> state;
    uint64_t stamp = 0;
  };

  size_t capacity_;
  mutable Mutex mutex_;
  mutable std::vector<Slot> slots_ TTRA_GUARDED_BY(mutex_);
  mutable uint64_t clock_ TTRA_GUARDED_BY(mutex_) = 0;
};

/// Direct realization of the paper's semantics: every (state, txn) pair is
/// stored in full. Entries are shared immutable states, so FINDSTATE and
/// Clone are allocation-free — O(1) and O(history) pointer copies.
template <typename StateT>
class FullCopyLog final : public StateLog<StateT> {
 public:
  Status Append(const StateT& state, TransactionNumber txn) override {
    if (!entries_.empty() && txn <= entries_.back().second) {
      return InternalError("non-increasing transaction number in Append");
    }
    entries_.emplace_back(std::make_shared<const StateT>(state), txn);
    return Status::Ok();
  }

  Status ReplaceLast(const StateT& state, TransactionNumber txn) override {
    entries_.clear();
    entries_.emplace_back(std::make_shared<const StateT>(state), txn);
    return Status::Ok();
  }

  std::shared_ptr<const StateT> StateAt(TransactionNumber txn) const override {
    auto it = std::upper_bound(
        entries_.begin(), entries_.end(), txn,
        [](TransactionNumber t, const auto& e) { return t < e.second; });
    if (it == entries_.begin()) return nullptr;
    return std::prev(it)->first;
  }

  size_t size() const override { return entries_.size(); }

  TransactionNumber TxnAt(size_t i) const override {
    return entries_[i].second;
  }

  size_t ApproxBytes() const override {
    size_t total = 0;
    for (const auto& [state, txn] : entries_) {
      total += ApproxSize(*state) + sizeof(TransactionNumber);
    }
    return total;
  }

  StorageKind kind() const override { return StorageKind::kFullCopy; }

  std::unique_ptr<StateLog<StateT>> Clone() const override {
    return std::make_unique<FullCopyLog<StateT>>(*this);
  }

 private:
  std::vector<std::pair<std::shared_ptr<const StateT>, TransactionNumber>>
      entries_;
};

/// rows := (rows − removed) ∪ added; all three are canonical (sorted,
/// duplicate-free) row vectors. The replay step of every differential
/// engine.
template <typename Row>
void ApplyRowDelta(const std::vector<Row>& added,
                   const std::vector<Row>& removed, std::vector<Row>& rows) {
  if (!removed.empty()) {
    std::vector<Row> kept;
    kept.reserve(rows.size());
    std::set_difference(rows.begin(), rows.end(), removed.begin(),
                        removed.end(), std::back_inserter(kept));
    rows = std::move(kept);
  }
  if (!added.empty()) {
    std::vector<Row> merged;
    merged.reserve(rows.size() + added.size());
    std::merge(rows.begin(), rows.end(), added.begin(), added.end(),
               std::back_inserter(merged));
    rows = std::move(merged);
  }
}

/// The inverse of ApplyRowDelta: fills `added`/`removed` with the rows
/// that take canonical `from` to canonical `to`.
template <typename Row>
void DiffRows(const std::vector<Row>& from, const std::vector<Row>& to,
              std::vector<Row>& added, std::vector<Row>& removed) {
  std::set_difference(to.begin(), to.end(), from.begin(), from.end(),
                      std::back_inserter(added));
  std::set_difference(from.begin(), from.end(), to.begin(), to.end(),
                      std::back_inserter(removed));
}

// Sharing rule of the differential engines below: an appended entry's
// rows live in an immutable node behind a shared_ptr, so a copy of the log
// (Clone, and so a copy-on-write Relation) copies one pointer per entry
// and never a row. Nothing mutates a node after Append publishes it;
// ReplaceLast drops the log's pointers instead of editing the nodes.

/// Differential ("backlog") engine: each entry stores the rows added and
/// removed relative to the previous state. FINDSTATE replays from the
/// nearest cached reconstruction (or the start); the tail state is kept
/// shared so ρ(R, ∞) is O(1). Space is proportional to change volume.
template <typename StateT>
class DeltaLog final : public StateLog<StateT> {
 public:
  using Row = typename StateTraits<StateT>::Row;

  explicit DeltaLog(size_t cache_capacity = kDefaultFindStateCacheCapacity)
      : cache_(cache_capacity) {}

  Status Append(const StateT& state, TransactionNumber txn) override {
    if (!entries_.empty() && txn <= entries_.back().txn) {
      return InternalError("non-increasing transaction number in Append");
    }
    auto delta = std::make_shared<Delta>();
    delta->schema = state.schema();
    const std::vector<Row>& new_rows = StateTraits<StateT>::Rows(state);
    if (tail_state_ != nullptr && tail_state_->schema() != state.schema()) {
      // Scheme change: rebase with a full snapshot of the new rows.
      delta->removed = StateTraits<StateT>::Rows(*tail_state_);
      delta->added = new_rows;
    } else {
      const std::vector<Row> no_rows;
      DiffRows(tail_state_ ? StateTraits<StateT>::Rows(*tail_state_) : no_rows,
               new_rows, delta->added, delta->removed);
    }
    tail_state_ = std::make_shared<const StateT>(state);
    entries_.push_back(Entry{txn, std::move(delta)});
    cache_.Clear();
    return Status::Ok();
  }

  Status ReplaceLast(const StateT& state, TransactionNumber txn) override {
    entries_.clear();
    tail_state_.reset();
    cache_.Clear();
    return Append(state, txn);
  }

  std::shared_ptr<const StateT> StateAt(TransactionNumber txn) const override {
    auto it = std::upper_bound(
        entries_.begin(), entries_.end(), txn,
        [](TransactionNumber t, const Entry& e) { return t < e.txn; });
    if (it == entries_.begin()) return nullptr;
    const size_t last = static_cast<size_t>(it - entries_.begin()) - 1;
    if (last + 1 == entries_.size()) return tail_state_;
    if (auto cached = cache_.Get(last)) return cached;
    // Seed the replay from the nearest cached reconstruction at or before
    // `last` (only if its scheme epoch matches — a rebase entry in between
    // resets the rows anyway, so any seed is safe to replay through).
    size_t start = 0;
    std::vector<Row> rows;
    if (auto seed = cache_.Floor(last)) {
      start = seed->first + 1;
      rows = StateTraits<StateT>::Rows(*seed->second);
    }
    for (size_t i = start; i <= last; ++i) {
      ApplyRowDelta(entries_[i].delta->added, entries_[i].delta->removed,
                    rows);
    }
    auto state = std::make_shared<const StateT>(StateTraits<StateT>::FromRows(
        entries_[last].delta->schema, std::move(rows)));
    cache_.Put(last, state);
    return state;
  }

  size_t size() const override { return entries_.size(); }

  TransactionNumber TxnAt(size_t i) const override { return entries_[i].txn; }

  size_t ApproxBytes() const override {
    size_t total = 0;
    for (const Entry& e : entries_) {
      total += sizeof(TransactionNumber) + 32;  // entry overhead
      for (const Row& r : e.delta->added) total += ApproxSize(r);
      for (const Row& r : e.delta->removed) total += ApproxSize(r);
    }
    return total;
  }

  StorageKind kind() const override { return StorageKind::kDelta; }

  std::unique_ptr<StateLog<StateT>> Clone() const override {
    return std::make_unique<DeltaLog<StateT>>(*this);
  }

 private:
  struct Delta {
    Schema schema;  // of the state this entry yields
    std::vector<Row> added;
    std::vector<Row> removed;
  };
  struct Entry {
    TransactionNumber txn = 0;
    std::shared_ptr<const Delta> delta;
  };

  std::vector<Entry> entries_;
  std::shared_ptr<const StateT> tail_state_;  // most recent state, shared
  FindStateCache<StateT> cache_;
};

/// Delta engine with periodic full checkpoints: every `interval`-th entry
/// stores the complete state, bounding FINDSTATE replay to `interval`
/// entries — the classic space/time dial between kFullCopy (interval 1)
/// and kDelta (interval ∞). Checkpoint entries are shared immutable
/// states, so appending a checkpoint and serving one are O(1) copies.
template <typename StateT>
class CheckpointLog final : public StateLog<StateT> {
 public:
  using Row = typename StateTraits<StateT>::Row;

  explicit CheckpointLog(
      size_t interval,
      size_t cache_capacity = kDefaultFindStateCacheCapacity)
      : interval_(interval < 1 ? 1 : interval), cache_(cache_capacity) {}

  Status Append(const StateT& state, TransactionNumber txn) override {
    if (!entries_.empty() && txn <= entries_.back().txn) {
      return InternalError("non-increasing transaction number in Append");
    }
    Entry entry;
    entry.txn = txn;
    auto shared = std::make_shared<const StateT>(state);
    // A scheme change forces a checkpoint, so every delta entry has the
    // scheme of the checkpoint that opens its run.
    const bool checkpoint = entries_.empty() ||
                            entries_.size() % interval_ == 0 ||
                            tail_state_->schema() != state.schema();
    if (checkpoint) {
      entry.full = shared;
    } else {
      auto delta = std::make_shared<Delta>();
      DiffRows(StateTraits<StateT>::Rows(*tail_state_),
               StateTraits<StateT>::Rows(state), delta->added,
               delta->removed);
      entry.delta = std::move(delta);
    }
    tail_state_ = std::move(shared);
    entries_.push_back(std::move(entry));
    cache_.Clear();
    return Status::Ok();
  }

  Status ReplaceLast(const StateT& state, TransactionNumber txn) override {
    entries_.clear();
    tail_state_.reset();
    cache_.Clear();
    return Append(state, txn);
  }

  std::shared_ptr<const StateT> StateAt(TransactionNumber txn) const override {
    auto it = std::upper_bound(
        entries_.begin(), entries_.end(), txn,
        [](TransactionNumber t, const Entry& e) { return t < e.txn; });
    if (it == entries_.begin()) return nullptr;
    const size_t last = static_cast<size_t>(it - entries_.begin()) - 1;
    if (last + 1 == entries_.size()) return tail_state_;
    if (entries_[last].full != nullptr) return entries_[last].full;
    if (auto cached = cache_.Get(last)) return cached;
    size_t start = last;
    while (entries_[start].full == nullptr) {
      assert(start > 0);
      --start;
    }
    // Prefer a cached reconstruction inside the same checkpoint segment
    // over replaying from the checkpoint itself.
    std::vector<Row> rows;
    size_t next = start;
    if (auto seed = cache_.Floor(last); seed && seed->first > start) {
      rows = StateTraits<StateT>::Rows(*seed->second);
      next = seed->first + 1;
    } else {
      rows = StateTraits<StateT>::Rows(*entries_[start].full);
      next = start + 1;
    }
    for (size_t i = next; i <= last; ++i) {
      ApplyRowDelta(entries_[i].delta->added, entries_[i].delta->removed,
                    rows);
    }
    auto state = std::make_shared<const StateT>(StateTraits<StateT>::FromRows(
        entries_[start].full->schema(), std::move(rows)));
    cache_.Put(last, state);
    return state;
  }

  size_t size() const override { return entries_.size(); }

  TransactionNumber TxnAt(size_t i) const override { return entries_[i].txn; }

  size_t ApproxBytes() const override {
    size_t total = 0;
    for (const Entry& e : entries_) {
      total += sizeof(TransactionNumber) + 32;
      if (e.full != nullptr) {
        total += ApproxSize(*e.full);
        continue;
      }
      for (const Row& r : e.delta->added) total += ApproxSize(r);
      for (const Row& r : e.delta->removed) total += ApproxSize(r);
    }
    return total;
  }

  StorageKind kind() const override { return StorageKind::kCheckpoint; }

  std::unique_ptr<StateLog<StateT>> Clone() const override {
    return std::make_unique<CheckpointLog<StateT>>(*this);
  }

  size_t interval() const { return interval_; }

 private:
  struct Delta {
    std::vector<Row> added;
    std::vector<Row> removed;
  };
  struct Entry {
    TransactionNumber txn = 0;
    // Exactly one is non-null: the full state of a checkpoint entry, or
    // the rows a delta entry changes.
    std::shared_ptr<const StateT> full;
    std::shared_ptr<const Delta> delta;
  };

  size_t interval_;
  std::vector<Entry> entries_;
  std::shared_ptr<const StateT> tail_state_;
  FindStateCache<StateT> cache_;
};

/// Reverse-delta engine (the RCS layout): the most recent state is stored
/// in full and each older state is reachable through a *backward* delta.
/// ρ(R, ∞) hands out the shared current state in O(1); rolling back to the
/// k-th most recent state replays backward deltas from the nearest cached
/// reconstruction. The natural complement of DeltaLog when queries skew
/// towards the present.
template <typename StateT>
class ReverseDeltaLog final : public StateLog<StateT> {
 public:
  using Row = typename StateTraits<StateT>::Row;

  explicit ReverseDeltaLog(
      size_t cache_capacity = kDefaultFindStateCacheCapacity)
      : cache_(cache_capacity) {}

  Status Append(const StateT& state, TransactionNumber txn) override {
    if (!txns_.empty() && txn <= txns_.back()) {
      return InternalError("non-increasing transaction number in Append");
    }
    if (!txns_.empty()) {
      // Record how to get the *previous* state back from the new one.
      const std::vector<Row>& current_rows =
          StateTraits<StateT>::Rows(*current_state_);
      auto entry = std::make_shared<BackEntry>();
      entry->schema = current_state_->schema();
      if (current_state_->schema() != state.schema()) {
        // Scheme boundary: keep the previous rows verbatim.
        entry->is_full = true;
        entry->added = current_rows;
      } else {
        DiffRows(StateTraits<StateT>::Rows(state), current_rows,
                 entry->added, entry->removed);
      }
      back_deltas_.push_back(std::move(entry));
    }
    txns_.push_back(txn);
    current_state_ = std::make_shared<const StateT>(state);
    cache_.Clear();
    return Status::Ok();
  }

  Status ReplaceLast(const StateT& state, TransactionNumber txn) override {
    txns_.clear();
    back_deltas_.clear();
    current_state_.reset();
    cache_.Clear();
    return Append(state, txn);
  }

  std::shared_ptr<const StateT> StateAt(TransactionNumber txn) const override {
    auto it = std::upper_bound(txns_.begin(), txns_.end(), txn);
    if (it == txns_.begin()) return nullptr;
    const size_t target = static_cast<size_t>(it - txns_.begin()) - 1;
    if (target + 1 == txns_.size()) return current_state_;
    if (auto cached = cache_.Get(target)) return cached;
    // Walk backwards towards `target` from the nearest reconstruction at
    // or after it (cached, or the current state); back_deltas_[k] recovers
    // version k from version k+1.
    size_t from = txns_.size() - 1;
    std::vector<Row> rows;
    Schema schema;
    if (auto seed = cache_.Ceil(target); seed && seed->first < from) {
      from = seed->first;
      rows = StateTraits<StateT>::Rows(*seed->second);
      schema = seed->second->schema();
    } else {
      rows = StateTraits<StateT>::Rows(*current_state_);
      schema = current_state_->schema();
    }
    for (size_t k = from; k > target; --k) {
      const BackEntry& entry = *back_deltas_[k - 1];
      if (entry.is_full) {
        rows = entry.added;
      } else {
        ApplyRowDelta(entry.added, entry.removed, rows);
      }
      schema = entry.schema;
    }
    auto state = std::make_shared<const StateT>(
        StateTraits<StateT>::FromRows(schema, std::move(rows)));
    cache_.Put(target, state);
    return state;
  }

  size_t size() const override { return txns_.size(); }

  TransactionNumber TxnAt(size_t i) const override { return txns_[i]; }

  size_t ApproxBytes() const override {
    size_t total = 64;
    if (current_state_ != nullptr) total += ApproxSize(*current_state_);
    for (const auto& e : back_deltas_) {
      total += 32;
      for (const Row& r : e->added) total += ApproxSize(r);
      for (const Row& r : e->removed) total += ApproxSize(r);
    }
    total += txns_.size() * sizeof(TransactionNumber);
    return total;
  }

  StorageKind kind() const override { return StorageKind::kReverseDelta; }

  std::unique_ptr<StateLog<StateT>> Clone() const override {
    return std::make_unique<ReverseDeltaLog<StateT>>(*this);
  }

 private:
  struct BackEntry {
    Schema schema;   // scheme of the *older* state this entry recovers
    bool is_full = false;
    std::vector<Row> added;    // rows to restore (all rows when is_full)
    std::vector<Row> removed;  // rows the newer state introduced
  };

  std::vector<TransactionNumber> txns_;
  // size = txns_.size() - 1
  std::vector<std::shared_ptr<const BackEntry>> back_deltas_;
  std::shared_ptr<const StateT> current_state_;
  FindStateCache<StateT> cache_;
};

}  // namespace ttra

#endif  // TTRA_STORAGE_LOGS_H_
