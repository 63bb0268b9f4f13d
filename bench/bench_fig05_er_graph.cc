// Fig 5: the entity-relationship graph for PERSON / COMPOSER /
// COMPOSITION / DATE (§5.1). Regenerates the schema from the paper's
// DDL and measures relationship traversal (the m:n join behind the
// Star Spangled Banner query).
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/random.h"
#include "ddl/parser.h"
#include "quel/quel.h"

namespace {

using mdm::er::Database;

constexpr const char* kPaperDdl = R"(
  define entity DATE (day = integer, month = integer, year = integer)
  define entity COMPOSITION (title = string, composition_date = DATE)
  define entity PERSON (name = string)
  define relationship COMPOSER (person = PERSON,
                                composition = COMPOSITION)
)";

Database MakeComposerDb(int compositions) {
  Database db;
  if (!mdm::ddl::ExecuteDdl(kPaperDdl, &db).ok()) std::abort();
  mdm::Rng rng(11);
  std::vector<mdm::er::EntityId> people;
  for (int p = 0; p < std::max(compositions / 10, 2); ++p) {
    auto person = db.CreateEntity("PERSON");
    (void)db.SetAttribute(*person, "name",
                          mdm::rel::Value::String("composer" +
                                                  std::to_string(p)));
    people.push_back(*person);
  }
  for (int c = 0; c < compositions; ++c) {
    auto comp = db.CreateEntity("COMPOSITION");
    (void)db.SetAttribute(
        *comp, "title",
        mdm::rel::Value::String(c == compositions / 2
                                    ? "The Star Spangled Banner"
                                    : "Work " + std::to_string(c)));
    auto date = db.CreateEntity("DATE");
    (void)db.SetAttribute(*date, "year",
                          mdm::rel::Value::Int(1700 + rng.Uniform(200)));
    (void)db.SetAttribute(*comp, "composition_date",
                          mdm::rel::Value::Ref(*date));
    (void)db.Connect("COMPOSER",
                     {{"person", people[rng.Uniform(people.size())]},
                      {"composition", *comp}});
  }
  db.PublishSnapshot();  // timed reads take the snapshot path
  return db;
}

// The paper's §5.6 `is` query, end to end through QUEL.
void BM_StarSpangledBannerQuery(benchmark::State& state) {
  Database db = MakeComposerDb(static_cast<int>(state.range(0)));
  mdm::quel::QuelSession session(&db);
  const char* query = R"(
    retrieve (PERSON.name)
      where COMPOSITION.title = "The Star Spangled Banner"
        and COMPOSER.composition is COMPOSITION
        and COMPOSER.composer is PERSON
  )";
  // The paper's role name is `person`; accept that spelling.
  const char* fixed_query = R"(
    retrieve (PERSON.name)
      where COMPOSITION.title = "The Star Spangled Banner"
        and COMPOSER.composition is COMPOSITION
        and COMPOSER.person is PERSON
  )";
  (void)query;
  for (auto _ : state) {
    auto rs = session.Execute(fixed_query);
    if (!rs.ok() || rs->rows.size() != 1)
      state.SkipWithError("query failed");
    benchmark::DoNotOptimize(rs->rows.size());
  }
}
BENCHMARK(BM_StarSpangledBannerQuery)->Arg(10)->Arg(100)->Arg(1000);

// Raw relationship traversal without the query layer.
void BM_RelationshipScan(benchmark::State& state) {
  Database db = MakeComposerDb(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    uint64_t count = 0;
    (void)db.ForEachRelationship(
        "COMPOSER", [&](const mdm::er::RelationshipInstance& ri) {
          count += ri.role_refs.size();
          return true;
        });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RelationshipScan)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = mdm::bench::ConsumeSmokeFlag(&argc, argv);
  mdm::bench::PrintHeader(
      "Fig 5 — an entity-relationship graph",
      "PERSON --m:n COMPOSER--> COMPOSITION, with the implicit 1:n "
      "COMPOSITION_DATE as an entity-valued attribute");
  Database db = MakeComposerDb(3);
  std::printf("schema as DDL (deparsed from the catalog):\n%s\n",
              mdm::ddl::SchemaToDdl(db.schema()).c_str());
  benchmark::Initialize(&argc, argv);
  if (!smoke) benchmark::RunSpecifiedBenchmarks();
  mdm::bench::PrintSmokeJson("fig05_er_graph", smoke);
  return 0;
}
