// Corpus generator + loader properties (tier-1).
//
// The macro-benchmark's foundation is a generator whose every output
// parses cleanly through the real DARMS front end and a loader whose
// in-memory models agree with what the database actually stored. Both
// properties are checked here over a wide seed sweep, plus a seeded
// mutation fuzz asserting the parser fails with typed Statuses (never
// crashes) on corrupted corpus text.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "corpus/generator.h"
#include "corpus/loader.h"
#include "darms/darms.h"
#include "er/database.h"
#include "net/connection.h"
#include "obs/metrics.h"
#include "quel/quel.h"

namespace mdm::corpus {
namespace {

// Satellite acceptance: the round-trip property holds for >= 100 seeds.
constexpr uint64_t kCorpusSeeds = 30;
constexpr int kScoresPerSeed = 4;  // 30 * 4 = 120 generated scores

TEST(CorpusGeneratorTest, RoundTripStableAcrossSeeds) {
  for (uint64_t seed = 0; seed < kCorpusSeeds; ++seed) {
    CorpusSpec cs;
    cs.seed = seed;
    cs.scores = kScoresPerSeed;
    cs.target_total_notes = 400;
    for (int i = 0; i < kScoresPerSeed; ++i) {
      ScoreSpec spec = DeriveScoreSpec(cs, i);
      GeneratedScore gen = GenerateScore(spec);
      ASSERT_FALSE(gen.user_darms.empty());
      ASSERT_GT(gen.notes, 0);

      // The compact form the loader feeds the importer parses cleanly...
      auto items = darms::ParseDarms(gen.user_darms);
      ASSERT_TRUE(items.ok()) << "seed " << seed << " score " << i << ": "
                              << items.status().ToString() << "\n"
                              << gen.user_darms;
      // ...into exactly the items the generator produced (stable
      // re-emission: encode(parse(encode(items))) == encode(items)).
      EXPECT_EQ(darms::EncodeUser(*items), gen.user_darms);
      EXPECT_EQ(darms::EncodeCanonical(*items), gen.canonical_darms);

      // The canonical form is a fixed point of the canonizer.
      auto canon = darms::Canonicalize(gen.canonical_darms);
      ASSERT_TRUE(canon.ok()) << canon.status().ToString();
      EXPECT_EQ(*canon, gen.canonical_darms);

      // Parsed stream agrees with the generator's own counts.
      int notes = 0, rests = 0, barlines = 0;
      for (const darms::DarmsItem& item : *items) {
        if (item.kind == darms::DarmsItem::Kind::kNote) ++notes;
        if (item.kind == darms::DarmsItem::Kind::kRest) ++rests;
        if (item.kind == darms::DarmsItem::Kind::kBarline ||
            item.kind == darms::DarmsItem::Kind::kFinalBarline)
          ++barlines;
      }
      EXPECT_EQ(notes, gen.notes);
      EXPECT_EQ(rests, gen.rests);
      EXPECT_EQ(barlines, gen.measures);
    }
  }
}

TEST(CorpusGeneratorTest, DeterministicInSeed) {
  ScoreSpec spec;
  spec.seed = 1234;
  spec.target_notes = 200;
  GeneratedScore a = GenerateScore(spec);
  GeneratedScore b = GenerateScore(spec);
  EXPECT_EQ(a.user_darms, b.user_darms);
  EXPECT_EQ(a.canonical_darms, b.canonical_darms);
  EXPECT_EQ(a.notes, b.notes);
  spec.seed = 1235;
  GeneratedScore c = GenerateScore(spec);
  EXPECT_NE(a.user_darms, c.user_darms);
}

TEST(CorpusGeneratorTest, TracksTargetNotes) {
  for (int target : {50, 500, 2000}) {
    ScoreSpec spec;
    spec.seed = 7;
    spec.target_notes = target;
    GeneratedScore gen = GenerateScore(spec);
    // Generation closes the measure after crossing the target, so the
    // overshoot is bounded by one measure of notes.
    EXPECT_GE(gen.notes, target);
    EXPECT_LE(gen.notes, target + 32);
  }
}

// Seeded mutation fuzz: corrupt generated corpus text and assert the
// parser and importer return typed Statuses — no crash, no hang, and
// never a success that misreports itself. (The specific historical
// crashers live as named regressions in darms_test.cc.)
TEST(CorpusFuzzTest, MutatedScoresFailWithTypedStatus) {
  ScoreSpec spec;
  spec.seed = 99;
  spec.target_notes = 120;
  const std::string base = GenerateScore(spec).user_darms;
  Rng rng(0xFADED);
  const char kBytes[] = "!KMR()@$,/0123456789WHQES#-N.ZU ";
  for (int round = 0; round < 300; ++round) {
    std::string text = base;
    int edits = 1 + static_cast<int>(rng.Uniform(4));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng.Uniform(text.size());
      switch (rng.Uniform(3)) {
        case 0:  // flip a byte
          text[pos] = kBytes[rng.Uniform(sizeof(kBytes) - 1)];
          break;
        case 1:  // insert a byte
          text.insert(pos, 1, kBytes[rng.Uniform(sizeof(kBytes) - 1)]);
          break;
        default:  // truncate
          text.resize(pos);
          break;
      }
      if (text.empty()) break;
    }
    auto items = darms::ParseDarms(text);
    if (!items.ok())
      EXPECT_FALSE(items.status().message().empty()) << text;
    er::Database db;
    auto import = darms::ImportDarms(&db, text, "fuzz");
    if (!import.ok())
      EXPECT_FALSE(import.status().message().empty()) << text;
  }
}

TEST(CorpusLoaderTest, ModelsAgreeWithDatabase) {
  er::Database db;
  LoadOptions options;
  options.spec.seed = 5;
  options.spec.scores = 4;
  options.spec.target_total_notes = 400;
  auto corpus = LoadCorpus(&db, options);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  ASSERT_EQ(corpus->tenants.size(), 4u);

  int64_t notes = 0;
  for (const TenantModel& t : corpus->tenants) {
    EXPECT_EQ(t.notes, static_cast<int>(t.keys.size()));
    EXPECT_GT(t.measures, 0);
    EXPECT_FALSE(t.incipit_text.empty());
    int counted = 0;
    for (const auto& [key, n] : t.key_count) {
      EXPECT_GE(key, 0);
      counted += n;
    }
    EXPECT_EQ(counted, t.notes);
    notes += t.notes;
  }
  EXPECT_EQ(notes, corpus->total_notes);

  // Cross-check tenant 0 through the public query surface.
  Connection conn = Connection::Local(&db);
  auto rs = conn.Execute(
      "range of n is NOTE range of s is STAFF "
      "retrieve (c = count(n)) where n under s in note_on_staff "
      "and s.number = 0");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->At(0, 0).AsInt(), corpus->tenants[0].notes);

  // The thematic index has one entry per score, addressable by number.
  auto entry = conn.Execute(
      "range of e is CATALOG_ENTRY retrieve (e.title) "
      "where e.number = \"2\"");
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  ASSERT_EQ(entry->rows.size(), 1u);
  EXPECT_EQ(entry->At(0, 0).AsString(), "score-2");

  // The workload's secondary indexes were defined by the load.
  EXPECT_NE(db.FindAttrIndexByName("idx_score_title"), nullptr);
  EXPECT_NE(db.FindAttrIndexByName("idx_note_midi_key"), nullptr);
  EXPECT_NE(db.FindAttrIndexByName("idx_entry_incipit"), nullptr);
}

TEST(CorpusLoaderTest, SnapshotIndexProbeIsExactRightAfterLoad) {
  er::Database db;
  LoadOptions options;
  options.spec.seed = 5;
  options.spec.scores = 4;
  options.spec.target_total_notes = 400;
  auto corpus = LoadCorpus(&db, options);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  const int key = corpus->tenants[0].keys[0];
  int64_t hits = 0;
  for (const TenantModel& t : corpus->tenants) {
    auto it = t.key_count.find(key);
    if (it != t.key_count.end()) hits += it->second;
  }

  // The first read after the load is served lock-free from the last
  // published snapshot, and its index probe enumerates only the hits.
  obs::Registry* reg = obs::Registry::Global();
  obs::Counter* pin_fallbacks =
      reg->GetCounter("mdm_er_snapshot_pin_fallbacks_total");
  obs::Counter* snapshot_reads =
      reg->GetCounter("mdm_quel_snapshot_reads_total");
  const uint64_t fallbacks_before = pin_fallbacks->value();
  const uint64_t reads_before = snapshot_reads->value();
  Connection conn = Connection::Local(&db);
  conn.local_session()->set_collect_actuals(true);
  auto rs = conn.Execute(
      "range of n is NOTE retrieve (c = count(n)) where n.midi_key = " +
      std::to_string(key));
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->At(0, 0).AsInt(), hits);
  quel::StatementActuals actuals = conn.local_session()->TakeLastActuals();
  ASSERT_EQ(actuals.loops.size(), 1u);
  EXPECT_EQ(actuals.loops[0].var, "n");
  EXPECT_EQ(actuals.loops[0].rows_in, static_cast<uint64_t>(hits));
  EXPECT_EQ(pin_fallbacks->value() - fallbacks_before, 0u);
  // Both statements of the script (range, retrieve) read a snapshot.
  EXPECT_EQ(snapshot_reads->value() - reads_before, 2u);
}

TEST(CorpusLoaderTest, IncipitCountsCoverAllScores) {
  er::Database db;
  LoadOptions options;
  options.spec.seed = 11;
  options.spec.scores = 6;
  options.spec.target_total_notes = 300;
  auto corpus = LoadCorpus(&db, options);
  ASSERT_TRUE(corpus.ok());
  int total = 0;
  for (const auto& [text, n] : corpus->incipit_count) {
    EXPECT_FALSE(text.empty());
    total += n;
  }
  EXPECT_EQ(total, 6);
}

}  // namespace
}  // namespace mdm::corpus
