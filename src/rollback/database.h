#ifndef TTRA_ROLLBACK_DATABASE_H_
#define TTRA_ROLLBACK_DATABASE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rollback/relation.h"
#include "util/cow.h"

namespace ttra {

/// Storage configuration applied to relations created in a database.
struct DatabaseOptions {
  StorageKind storage = StorageKind::kFullCopy;
  size_t checkpoint_interval = 16;
  /// FINDSTATE reconstruction-cache capacity per relation log (0 disables
  /// caching; see kDefaultFindStateCacheCapacity).
  size_t findstate_cache_capacity = kDefaultFindStateCacheCapacity;
};

/// The paper's DATABASE semantic domain: a database state (identifier →
/// relation ∪ {⊥}) paired with the transaction number of the most recent
/// change. The mutating methods implement the command denotations C⟦·⟧
/// in-place (the efficient realization of "returns a new database"); use
/// Clone() where value semantics are needed.
///
/// Versions share structure: Clone() copies one handle per relation, and
/// a command copies the relation it changes only if another version still
/// shares it (Cow::Mutable). Copying a relation copies its log's entry
/// pointers, never rows, so a new version costs O(#relations) plus the
/// relations it touches, whatever the length of the history.
///
/// Faithful to the paper: a failed command leaves the database — including
/// its transaction number — completely unchanged, and define_relation on a
/// bound identifier / modify_state on an unbound one are failures (the
/// paper's `else d` branches, surfaced as errors so callers can tell).
class Database {
 public:
  explicit Database(DatabaseOptions options = {});

  // Movable; copies go through Clone().
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// The paper's transaction counter n (0 in the EMPTY database).
  TransactionNumber transaction_number() const { return txn_; }

  // --- Commands (C⟦·⟧) --------------------------------------------------

  /// C⟦define_relation(I, Y)⟧ with a declared scheme: binds I to an empty
  /// relation of the given type and increments the transaction number.
  /// Fails (kAlreadyDefined) if I is already bound.
  Status DefineRelation(const std::string& name, RelationType type,
                        Schema schema);

  /// C⟦modify_state(I, E)⟧ with E already evaluated to a state: replaces
  /// (snapshot/historical) or appends (rollback/temporal) the state with
  /// transaction number n+1, then sets n := n+1.
  Status ModifyState(const std::string& name, const SnapshotState& state);
  Status ModifyState(const std::string& name, const HistoricalState& state);

  /// Extension (companion TR): removes the binding of I. The transaction
  /// number is incremented; the identifier may later be redefined.
  Status DeleteRelation(const std::string& name);

  /// Extension (scheme evolution): installs a new scheme for I effective
  /// at transaction n+1 and increments the transaction number. Past states
  /// keep their recorded schemes.
  Status ModifySchema(const std::string& name, Schema schema);

  // --- The rollback operators ρ and ρ̂ ------------------------------------

  /// E⟦ρ(I, N)⟧: the snapshot state of I current at transaction `txn`;
  /// nullopt means N = ∞ (the most recent state). Enforces the paper's
  /// typing rules: finite N requires a rollback relation; ∞ also allows
  /// snapshot relations.
  Result<SnapshotState> Rollback(
      const std::string& name,
      std::optional<TransactionNumber> txn = std::nullopt) const;

  /// E⟦ρ̂(I, N)⟧: historical counterpart (temporal relations for finite N;
  /// ∞ also allows historical relations).
  Result<HistoricalState> RollbackHistorical(
      const std::string& name,
      std::optional<TransactionNumber> txn = std::nullopt) const;

  // --- Introspection -----------------------------------------------------

  /// The relation bound to `name`, or nullptr (the paper's ⊥).
  const Relation* Find(const std::string& name) const;

  /// Bound identifiers in sorted order.
  std::vector<std::string> RelationNames() const;

  size_t ApproxBytes() const;

  const DatabaseOptions& options() const { return options_; }

  /// An independent database with the same value. Relations are shared
  /// until either side changes them, so this is O(#relations).
  Database Clone() const;

  // --- Restore API (persistence layer only) -------------------------------
  //
  // These bypass the command semantics to rebuild a database exactly as
  // serialized — transaction numbers included. Normal code must go
  // through DefineRelation/ModifyState.

  /// Installs a fully-built relation under `name`, replacing any binding
  /// (the new relation is this database's alone).
  void RestoreRelation(const std::string& name, Relation relation);

  /// Forces the database's transaction counter.
  void RestoreTransactionNumber(TransactionNumber txn) { txn_ = txn; }

 private:
  DatabaseOptions options_;
  TransactionNumber txn_ = 0;
  std::map<std::string, Cow<Relation>> relations_;
};

}  // namespace ttra

#endif  // TTRA_ROLLBACK_DATABASE_H_
