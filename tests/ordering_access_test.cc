// Differential property test for the ordering access path: loops the
// planner drives through an ordering (descendants of a bound parent, or
// the siblings before/after a bound entity) must return exactly the
// rows, in exactly the order, of the filter-only ExecuteNaive plan —
// over random structural edits, and on snapshots pinned mid-run.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "ddl/parser.h"
#include "er/database.h"
#include "quel/quel.h"

namespace mdm::quel {
namespace {

using er::EntityId;
using rel::Value;

// The anchor variable (a) sorts first, so the naive plan nests its loops
// in the same order as the planned one and row order is comparable.
// Each query takes one name `K` selecting its anchor.
constexpr const char* kQueries[] = {
    // under, recursive ordering, each child type in turn.
    "range of a is GRP range of x is NOTE "
    "retrieve (x.name) where x under a in tree and a.name = %d",
    "range of a is GRP range of x is GRP "
    "retrieve (x.name) where x under a in tree and a.name = %d",
    "range of a is GRP range of x is NOTE "
    "retrieve (c = count(x)) where x under a in tree and a.name = %d",
    // Two levels: x is driven by b, b by a.
    "range of a, b is GRP range of x is NOTE "
    "retrieve (b.name, x.name) where x under b in tree and "
    "b under a in tree and a.name = %d",
    // Many anchors at once.
    "range of a is GRP range of x is NOTE "
    "retrieve (a.name, x.name) where x under a in tree and a.name < %d",
    // before/after, with the loop variable on either side.
    "range of a, x is NOTE "
    "retrieve (x.name) where x before a in flat and a.name = %d",
    "range of a, x is NOTE "
    "retrieve (x.name) where a before x in flat and a.name = %d",
    "range of a is NOTE range of x is GRP "
    "retrieve (x.name) where x after a in tree and a.name = %d",
    "range of a is GRP range of x is NOTE "
    "retrieve (x.name) where a after x in tree and a.name = %d",
    "range of a, x is NOTE "
    "retrieve (c = count(x)) where x after a in flat and a.name = %d",
};

class OrderingAccessPropertyTest : public testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    // A recursive ordering with two child types plus a flat one.
    ASSERT_TRUE(ddl::ExecuteDdl(R"(
      define entity GRP (name = integer)
      define entity NOTE (name = integer)
      define entity STAFF (name = integer)
      define ordering tree (GRP, NOTE) under GRP
      define ordering flat (NOTE) under STAFF
    )",
                                &db_)
                    .ok());
  }

  EntityId Create(const char* type) {
    auto id = db_.CreateEntity(type);
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(db_.SetAttribute(*id, "name", Value::Int(next_name_)).ok());
    names_.push_back(next_name_++);
    return *id;
  }

  /// One script per query, each with a name drawn from the entities
  /// created so far (deleted ones included: they must match nothing).
  std::vector<std::string> DrawScripts(Rng* rng) {
    std::vector<std::string> out;
    for (const char* q : kQueries)
      out.push_back(StrFormat(
          q, static_cast<int>(names_[rng->Uniform(names_.size())])));
    return out;
  }

  er::Database db_;
  int next_name_ = 1;
  std::vector<int64_t> names_;
};

TEST_P(OrderingAccessPropertyTest, PlannedEqualsNaiveOnEveryPin) {
  QuelSession session(&db_);
  Rng rng(GetParam());
  std::vector<EntityId> grps, notes, staffs;
  for (int i = 0; i < 6; ++i) grps.push_back(Create("GRP"));
  for (int i = 0; i < 16; ++i) notes.push_back(Create("NOTE"));
  for (int i = 0; i < 3; ++i) staffs.push_back(Create("STAFF"));
  auto h_tree = db_.ResolveOrderingHandle("tree");
  auto h_flat = db_.ResolveOrderingHandle("flat");
  ASSERT_TRUE(h_tree.ok() && h_flat.ok());

  struct Pin {
    std::shared_ptr<const er::Tables> tables;
    std::vector<std::string> scripts;
    std::vector<std::string> expected;  // naive results at pin time
  };
  std::vector<Pin> pins;
  size_t placed = 0, nonempty = 0;

  // Runs every script planned and naive on whatever the session reads,
  // requiring equal rendered results (columns, rows, row order).
  auto run_both = [&](const std::vector<std::string>& scripts,
                      std::vector<std::string>* naive_out) {
    for (const std::string& script : scripts) {
      SCOPED_TRACE(script);
      auto planned = session.Execute(script);
      auto naive = session.ExecuteNaive(script);
      ASSERT_TRUE(planned.ok()) << planned.status().ToString();
      ASSERT_TRUE(naive.ok()) << naive.status().ToString();
      EXPECT_EQ(planned->ToString(), naive->ToString());
      if (!naive->rows.empty() && !naive->rows[0][0].Equals(Value::Int(0)))
        ++nonempty;
      naive_out->push_back(naive->ToString());
    }
  };
  // Re-runs a pin's scripts under its snapshot. Called right after an
  // unpublished edit, so the session cannot pin a newer snapshot and
  // reads the pinned tables of this thread's scope instead.
  auto check = [&](const Pin& pin) {
    ASSERT_EQ(db_.TryPinSnapshot(), nullptr);
    er::SnapshotReadScope scope(&db_, pin.tables);
    std::vector<std::string> now;
    run_both(pin.scripts, &now);
    EXPECT_EQ(now, pin.expected);
  };

  // Renames a note: an edit that always applies.
  auto rename = [&] {
    EntityId id = notes[rng.Uniform(notes.size())];
    ASSERT_TRUE(db_.SetAttribute(id, "name", Value::Int(next_name_)).ok());
    names_.push_back(next_name_++);
  };
  for (int op = 0; op < 300; ++op) {
    SCOPED_TRACE(testing::Message() << "seed " << GetParam() << " op " << op);
    const double dice = rng.NextDouble();
    const bool in_tree = rng.Bernoulli(0.6);
    const er::OrderingHandle h = in_tree ? *h_tree : *h_flat;
    if (dice < 0.45) {
      // Insert (or move: detach first) a child at a random position.
      EntityId child, parent;
      if (in_tree) {
        child = rng.Bernoulli(0.3) ? grps[rng.Uniform(grps.size())]
                                   : notes[rng.Uniform(notes.size())];
        parent = grps[rng.Uniform(grps.size())];
      } else {
        child = notes[rng.Uniform(notes.size())];
        parent = staffs[rng.Uniform(staffs.size())];
      }
      if (*db_.ParentOf(h, child) != er::kInvalidEntityId) {
        ASSERT_TRUE(db_.RemoveChild(h, child).ok());
      }
      const uint64_t count = *db_.ChildCount(h, parent);
      // A tree insert that would close a cycle is refused; that is fine.
      if (db_.InsertChildAt(h, parent, child, rng.Uniform(count + 1)).ok())
        ++placed;
    } else if (dice < 0.60) {
      EntityId child = notes[rng.Uniform(notes.size())];
      if (*db_.ParentOf(h, child) != er::kInvalidEntityId) {
        ASSERT_TRUE(db_.RemoveChild(h, child).ok());
      }
    } else if (dice < 0.72) {
      // Delete an entity (its children become roots) and replace it.
      std::vector<EntityId>* pool = rng.Bernoulli(0.4) ? &grps : &notes;
      size_t slot = rng.Uniform(pool->size());
      ASSERT_TRUE(db_.DeleteEntity((*pool)[slot]).ok());
      (*pool)[slot] = Create(pool == &grps ? "GRP" : "NOTE");
    } else if (dice < 0.82) {
      db_.PublishSnapshot();
      Pin pin;
      pin.tables = db_.TryPinSnapshot();
      ASSERT_NE(pin.tables, nullptr);
      pin.scripts = DrawScripts(&rng);
      // Nothing is edited after the publish, so both plans read exactly
      // the pinned state here.
      run_both(pin.scripts, &pin.expected);
      pins.push_back(std::move(pin));
      if (pins.size() > 4) pins.erase(pins.begin());
    } else {
      rename();
    }
    if (op % 50 == 49) {
      rename();
      for (const Pin& pin : pins) check(pin);
    }
  }
  // The live tables (the shared-latch path) agree too.
  rename();
  std::vector<std::string> live;
  run_both(DrawScripts(&rng), &live);
  // The run was not vacuous.
  EXPECT_GT(placed, 100u);
  EXPECT_GT(nonempty, 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingAccessPropertyTest,
                         testing::Values(31u, 32u, 33u));

}  // namespace
}  // namespace mdm::quel
