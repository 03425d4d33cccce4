// Value semantics of database versions under structural sharing.
//
// Database::Clone() shares every relation with the original, and a
// relation is copied on its first change in either (util/cow.h); the
// differential logs share their appended entries (storage/logs.h). For
// every storage engine, each way of changing a copy must leave the
// original byte-equal and equal under ρ at every transaction, also when
// the original's FINDSTATE cache was warm before the copy was taken, and
// the relations the change did not touch must stay shared.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "oracle_harness.h"
#include "rollback/commands.h"
#include "rollback/database.h"
#include "storage/logs.h"
#include "util/cow.h"
#include "workload/generator.h"

namespace ttra {
namespace {

Schema TwoCol() {
  return *Schema::Make({{"id", ValueType::kInt}, {"v", ValueType::kInt}});
}

Schema ThreeCol() {
  return *Schema::Make({{"id", ValueType::kInt},
                        {"v", ValueType::kInt},
                        {"w", ValueType::kString}});
}

const std::vector<std::string> kNames = {"h", "r", "s", "t", "u"};

// r, u: rollback; t: temporal; s: snapshot; h: historical. Twelve rounds
// of changes, so every differential engine has checkpoints, deltas and
// back-deltas behind its tail.
Database Build(StorageKind storage) {
  workload::Generator gen(5);
  Database db(DatabaseOptions{.storage = storage,
                              .checkpoint_interval = 4,
                              .findstate_cache_capacity = 4});
  EXPECT_TRUE(db.DefineRelation("r", RelationType::kRollback, TwoCol()).ok());
  EXPECT_TRUE(db.DefineRelation("u", RelationType::kRollback, TwoCol()).ok());
  EXPECT_TRUE(db.DefineRelation("t", RelationType::kTemporal, TwoCol()).ok());
  EXPECT_TRUE(db.DefineRelation("s", RelationType::kSnapshot, TwoCol()).ok());
  EXPECT_TRUE(
      db.DefineRelation("h", RelationType::kHistorical, TwoCol()).ok());
  SnapshotState snap = gen.RandomState(TwoCol(), 10);
  HistoricalState hist = gen.RandomHistoricalState(TwoCol(), 6);
  for (int round = 0; round < 12; ++round) {
    EXPECT_TRUE(db.ModifyState("r", snap).ok());
    EXPECT_TRUE(db.ModifyState("t", hist).ok());
    if (round % 3 == 0) {
      EXPECT_TRUE(db.ModifyState("u", snap).ok());
    }
    if (round % 4 == 0) {
      EXPECT_TRUE(db.ModifyState("s", snap).ok());
      EXPECT_TRUE(db.ModifyState("h", hist).ok());
    }
    snap = gen.MutateState(snap, 0.3);
    hist = gen.MutateState(hist, 0.3);
  }
  return db;
}

/// Everything observable about a database: its encoding and FINDSTATE of
/// every relation at every transaction (reconstruction fills the caches).
struct Image {
  std::string bytes;
  std::vector<SnapshotState> snapshots;
  std::vector<HistoricalState> histories;
  bool operator==(const Image&) const = default;
};

Image Capture(const Database& db) {
  Image image;
  image.bytes = EncodeDatabase(db);
  for (const std::string& name : db.RelationNames()) {
    const Relation* relation = db.Find(name);
    for (TransactionNumber txn = 0; txn <= db.transaction_number(); ++txn) {
      if (HoldsSnapshotStates(relation->type())) {
        image.snapshots.push_back(*relation->SnapshotAt(txn));
      } else {
        image.histories.push_back(*relation->HistoricalAt(txn));
      }
    }
  }
  return image;
}

struct Change {
  const char* label;
  std::vector<std::string> touched;  // relations the change may copy
  std::function<void(Database&)> apply;
};

std::vector<Change> Changes() {
  workload::Generator gen(9);
  const SnapshotState snap = gen.RandomState(TwoCol(), 7);
  const HistoricalState hist = gen.RandomHistoricalState(TwoCol(), 4);
  const SnapshotState wide = gen.RandomState(ThreeCol(), 5);
  return {
      {"modify rollback", {"r"},
       [=](Database& db) { ASSERT_TRUE(db.ModifyState("r", snap).ok()); }},
      {"modify temporal", {"t"},
       [=](Database& db) { ASSERT_TRUE(db.ModifyState("t", hist).ok()); }},
      {"schema change", {"r"},
       [=](Database& db) {
         ASSERT_TRUE(db.ModifySchema("r", ThreeCol()).ok());
         ASSERT_TRUE(db.ModifyState("r", wide).ok());
       }},
      {"delete and redefine", {"r"},
       [=](Database& db) {
         ASSERT_TRUE(db.DeleteRelation("r").ok());
         ASSERT_TRUE(
             db.DefineRelation("r", RelationType::kRollback, TwoCol()).ok());
         ASSERT_TRUE(db.ModifyState("r", snap).ok());
       }},
      {"replace last", {"h", "s"},
       [=](Database& db) {
         ASSERT_TRUE(db.ModifyState("s", snap).ok());
         ASSERT_TRUE(db.ModifyState("h", hist).ok());
       }},
      {"failed command", {"r"},
       [=](Database& db) {
         // Wrong scheme: fails, and may copy r without changing it.
         EXPECT_FALSE(db.ModifyState("r", wide).ok());
       }},
      {"failed atomic sentence", {"r", "t"},
       [=](Database& db) {
         const std::string before = EncodeDatabase(db);
         SerialExecutor exec;
         exec.Reset(std::move(db));
         auto failed = exec.SubmitAtomic([&](Database& scratch) {
           TTRA_RETURN_IF_ERROR(scratch.ModifyState("r", snap));
           TTRA_RETURN_IF_ERROR(scratch.ModifyState("t", hist));
           return scratch.ModifyState("missing", snap);
         });
         EXPECT_FALSE(failed.ok());
         db = exec.Snapshot();
         EXPECT_EQ(EncodeDatabase(db), before);
       }},
  };
}

class CowTest : public ::testing::TestWithParam<StorageKind> {};

INSTANTIATE_TEST_SUITE_P(
    Kinds, CowTest,
    ::testing::ValuesIn(oracle::kStorageKinds),
    [](const auto& info) {
      std::string name(StorageKindName(info.param));
      std::erase(name, '-');
      return name;
    });

TEST_P(CowTest, ChangingACopyLeavesTheOriginalUnchanged) {
  for (bool warm : {false, true}) {
    for (const Change& change : Changes()) {
      SCOPED_TRACE(std::string(change.label) + (warm ? ", warm cache" : ""));
      Database original = Build(GetParam());
      // Capture() reconstructs every version, so a first call warms the
      // original's FINDSTATE caches before the copy shares them.
      const Image before = warm ? Capture(original) : Image{};
      Database copy = original.Clone();
      change.apply(copy);
      if (warm) {
        EXPECT_TRUE(Capture(original) == before);
      } else {
        EXPECT_TRUE(Capture(original) == Capture(Build(GetParam())));
      }
      for (const std::string& name : kNames) {
        if (std::find(change.touched.begin(), change.touched.end(), name) ==
            change.touched.end()) {
          EXPECT_EQ(copy.Find(name), original.Find(name)) << name;
        }
      }
    }
  }
}

TEST_P(CowTest, ChangingTheOriginalLeavesACopyUnchanged) {
  for (const Change& change : Changes()) {
    SCOPED_TRACE(change.label);
    Database original = Build(GetParam());
    const Database copy = original.Clone();
    const Image before = Capture(copy);
    change.apply(original);
    EXPECT_TRUE(Capture(copy) == before);
  }
}

TEST_P(CowTest, RelationIsCopiedOnlyWhileShared) {
  Database db = Build(GetParam());
  const Relation* r = db.Find("r");
  { const Database dropped = db.Clone(); }
  ASSERT_TRUE(db.ModifyState("r", SnapshotState::Empty(TwoCol())).ok());
  EXPECT_EQ(db.Find("r"), r);  // the clone is gone: changed in place
  const Database copy = db.Clone();
  ASSERT_TRUE(db.ModifyState("r", SnapshotState::Empty(TwoCol())).ok());
  EXPECT_NE(db.Find("r"), r);  // shared: copied first
  EXPECT_EQ(copy.Find("r"), r);
}

TEST_P(CowTest, RelationCloneIsIndependent) {
  const Database db = Build(GetParam());
  const Relation& original = *db.Find("t");
  const TransactionNumber n = db.transaction_number();
  std::vector<HistoricalState> before;
  for (TransactionNumber txn = 0; txn <= n; ++txn) {
    before.push_back(*original.HistoricalAt(txn));
  }
  Relation copy = original.Clone();
  ASSERT_TRUE(copy.SetSchema(ThreeCol(), n + 1).ok());
  ASSERT_TRUE(copy.SetState(HistoricalState::Empty(ThreeCol()), n + 2).ok());
  EXPECT_EQ(copy.history_length(), original.history_length() + 1);
  for (TransactionNumber txn = 0; txn <= n; ++txn) {
    EXPECT_EQ(*original.HistoricalAt(txn), before[txn]);
    EXPECT_EQ(*copy.HistoricalAt(txn), before[txn]);
  }
  EXPECT_EQ(original.schema(), TwoCol());
}

TEST_P(CowTest, LogCloneIsIndependent) {
  workload::Generator gen(3);
  auto log = MakeStateLog<SnapshotState>(GetParam(), /*checkpoint_interval=*/4,
                                         /*cache_capacity=*/4);
  SnapshotState state = gen.RandomState(TwoCol(), 12);
  std::vector<SnapshotState> states;
  for (TransactionNumber txn = 1; txn <= 20; ++txn) {
    ASSERT_TRUE(log->Append(state, txn).ok());
    states.push_back(state);
    state = gen.MutateState(state, 0.3);
  }
  for (TransactionNumber txn = 1; txn <= 20; ++txn) log->StateAt(txn);
  for (bool replace : {false, true}) {
    auto copy = log->Clone();
    EXPECT_EQ(copy->ApproxBytes(), log->ApproxBytes());
    if (replace) {
      ASSERT_TRUE(copy->ReplaceLast(state, 30).ok());
    } else {
      ASSERT_TRUE(copy->Append(state, 30).ok());
    }
    for (TransactionNumber txn = 1; txn <= 20; ++txn) {
      EXPECT_EQ(*log->StateAt(txn), states[txn - 1]) << txn;
    }
    EXPECT_EQ(log->size(), 20u);
    EXPECT_EQ(*copy->StateAt(30), state);
  }
}

TEST(CowHandleTest, MutableCopiesOnlyWhenShared) {
  struct Box {
    int value = 0;
    Box Clone() const { return Box{value}; }
  };
  Cow<Box> a(Box{1});
  const Box* first = a.get();
  a.Mutable().value = 2;
  EXPECT_EQ(a.get(), first);  // sole owner: in place
  Cow<Box> b = a;
  EXPECT_EQ(b.get(), first);
  a.Mutable().value = 3;
  EXPECT_NE(a.get(), first);  // shared: copied first
  EXPECT_EQ(b->value, 2);
  EXPECT_EQ(a->value, 3);
  Cow<Box> c = std::move(b);
  EXPECT_EQ(c.get(), first);
  c.Mutable().value = 4;
  EXPECT_EQ(c.get(), first);
}

}  // namespace
}  // namespace ttra
