#ifndef TTRA_ROLLBACK_RELATION_H_
#define TTRA_ROLLBACK_RELATION_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/serialize.h"
#include "storage/state_log.h"

namespace ttra {

/// The paper's RELATION TYPE domain (§3.2, extended in §4).
enum class RelationType : uint8_t {
  kSnapshot = 0,    ///< one snapshot state, replaced on update
  kRollback = 1,    ///< sequence of snapshot states indexed by txn time
  kHistorical = 2,  ///< one historical state, replaced on update
  kTemporal = 3,    ///< sequence of historical states indexed by txn time
};

std::string_view RelationTypeName(RelationType type);
Result<RelationType> ParseRelationType(std::string_view name);

/// True for snapshot/rollback (the relation's states are snapshot states).
bool HoldsSnapshotStates(RelationType type);
/// True for rollback/temporal (all past states are retained).
bool RetainsHistory(RelationType type);

/// An element of the paper's RELATION semantic domain: a relation type
/// paired with a sequence of (state, transaction-number) pairs. The
/// sequence lives behind a StateLog engine; FINDSTATE is `SnapshotAt` /
/// `HistoricalAt`.
///
/// Extension beyond the paper: relations carry a declared scheme (states
/// are self-describing in the paper; a declared scheme gives empty states
/// a type and enables static analysis), and the scheme itself is versioned
/// by transaction time (the scheme-evolution extension the paper assigns
/// to its companion TR).
class Relation {
 public:
  /// An unusable placeholder; use Make.
  Relation() = default;

  static Relation Make(RelationType type, Schema schema,
                       TransactionNumber defined_at,
                       StorageKind storage = StorageKind::kFullCopy,
                       size_t checkpoint_interval = 16,
                       size_t cache_capacity = kDefaultFindStateCacheCapacity);

  RelationType type() const { return type_; }

  /// The scheme current at the most recent transaction.
  const Schema& schema() const { return schema_history_.back().first; }

  /// The scheme current at transaction `txn` (scheme evolution: schemes
  /// are versioned by transaction time exactly like states).
  const Schema& SchemaAt(TransactionNumber txn) const;

  /// The paper's modify_state dispatch (§3.5): replaces the single state
  /// of snapshot/historical relations, appends for rollback/temporal.
  /// `txn` is the (already incremented) commit transaction number.
  /// Fails if the state kind or scheme does not match the relation.
  Status SetState(const SnapshotState& state, TransactionNumber txn);
  Status SetState(const HistoricalState& state, TransactionNumber txn);

  /// FINDSTATE for snapshot-state relations: the state current at `txn`,
  /// or the empty state over SchemaAt(txn) when none exists (the paper's
  /// "empty set"). Fails on historical/temporal relations.
  Result<SnapshotState> SnapshotAt(TransactionNumber txn) const;

  /// FINDSTATE for historical-state relations.
  Result<HistoricalState> HistoricalAt(TransactionNumber txn) const;

  /// Scheme evolution: installs a new scheme effective at `txn`.
  /// Subsequent SetState calls must conform to it; past states keep their
  /// recorded schemes.
  Status SetSchema(Schema schema, TransactionNumber txn);

  /// The full scheme-version history: (scheme, installed-at txn) pairs in
  /// increasing transaction order. Index 0 is the define-time scheme.
  const std::vector<std::pair<Schema, TransactionNumber>>& schema_history()
      const {
    return schema_history_;
  }

  /// Number of (state, txn) pairs currently recorded.
  size_t history_length() const;
  /// Transaction number of the i-th recorded pair.
  TransactionNumber TxnAt(size_t i) const;
  /// Storage-engine footprint (experiment E3).
  size_t ApproxBytes() const;
  StorageKind storage_kind() const { return storage_; }

  /// An independent copy: the scheme history and the log's entry handles
  /// are copied, the entries themselves are immutable and shared (the
  /// copy-on-write step of Database; see util/cow.h).
  Relation Clone() const;

 private:
  RelationType type_ = RelationType::kSnapshot;
  StorageKind storage_ = StorageKind::kFullCopy;
  // Scheme versions in increasing transaction order; never empty after Make.
  std::vector<std::pair<Schema, TransactionNumber>> schema_history_;
  // Exactly one of these is non-null, matching HoldsSnapshotStates(type_).
  std::unique_ptr<StateLog<SnapshotState>> slog_;
  std::unique_ptr<StateLog<HistoricalState>> hlog_;
};

}  // namespace ttra

#endif  // TTRA_ROLLBACK_RELATION_H_
