// mdmbench: the MDM's standing benchmark.
//
// One closed-loop run of a named fig-1 workload against a corpus made
// from --seed. Setup (corpus generation, DARMS import, index build and,
// where journaled, a checkpoint) is repeated and timed; then the
// workload's clients each send their next op only after the previous
// reply lands, for --seconds. Every op's result is checked against the
// corpus oracle; the op-log digest of the run's first ops is compared
// with any earlier run of the same seed; the final state is reopened
// and every acknowledged write looked up.
//
//   mdmbench --workload library-remote --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates traced
// and untraced phases and prints the per-layer metrics. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. See NOTES.md.
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "corpus/loader.h"
#include "er/persist.h"
#include "fig1.h"
#include "net/connection.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "spans.h"

namespace mdmbench {
namespace {

namespace fs = std::filesystem;
using mdm::StrFormat;

// ---------------------------------------------------------------------
// Workloads (NOTES.md says why each exists and how its mix was chosen).

struct Workload {
  const char* name;
  // Editor, analyzer, typesetter, librarian. Only fig1-mix's weights
  // come from the paper; the other two are design points (NOTES.md).
  int weights[kClassCount];
  bool remote;   // clients talk to an in-process mdmd over loopback
  bool durable;  // journaled DurableDatabase with group commit

  bool writes() const { return weights[0] > 0; }
};

constexpr Workload kWorkloads[] = {
    {"fig1-mix", {2, 3, 3, 2}, false, false},
    {"library-remote", {0, 1, 1, 4}, true, false},
    {"editor-durable", {3, 0, 0, 1}, false, true},
};

constexpr int kClients = 4;  // closed-loop clients, one thread each
constexpr int kScores = 40;
constexpr int64_t kNotes = 20'000;
constexpr int kSetups = 5;     // setup_s is the median of this many
constexpr int kRestarts = 5;   // recovery_s is the median of this many
// Editor ops per tenant written to the journal that recovery_s replays,
// so its length does not depend on how fast the timed run went.
constexpr int kRecoveryOpsPerTenant = 100;
constexpr uint64_t kMinClassSamples = 100;  // p90 with >= 10 beyond it
constexpr int64_t kWarmupNs = 1'000'000'000;
constexpr int64_t kWindowNs = 1'000'000'000;  // throughput windows
constexpr int64_t kPhaseNs = 250'000'000;  // traced/untraced alternation

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_build/mdmbench-out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--out") a->out = v;
    else return false;
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0;
}

// ---------------------------------------------------------------------
// Clocks, memory, registry, statistics.

const std::chrono::steady_clock::time_point g_origin =
    std::chrono::steady_clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_origin)
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Peak resident set size of this process so far, in bytes.
double PeakRssBytes() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

using Counters = std::map<std::string, uint64_t>;

/// Counter deltas between two registry snapshots.
struct Delta {
  const Counters& before;
  const Counters& after;
  double operator()(const std::string& name) const {
    auto a = after.find(name);
    if (a == after.end()) return 0;
    auto b = before.find(name);
    return static_cast<double>(a->second -
                               (b == before.end() ? 0 : b->second));
  }
  double SpanCount(const char* span) const {
    return (*this)(StrFormat("mdm_span_duration_ns_count{span=\"%s\"}", span));
  }
  /// Mean of a span histogram over the section, in nanoseconds.
  double SpanMeanNs(const char* span) const {
    return Ratio(
        (*this)(StrFormat("mdm_span_duration_ns_sum{span=\"%s\"}", span)),
        SpanCount(span));
  }
  double SpanSelfNs(const char* span) const {
    return (*this)(StrFormat("mdm_span_self_ns_total{span=\"%s\"}", span));
  }
};

struct ClassLatency {
  size_t n = 0;
  double p50_ms = 0, p90_ms = 0, p99_ms = 0, mean_ms = 0;
  double max_supported_q = 0;  // highest q with >= 10 samples beyond it
};

/// Nearest-rank percentile of sorted nanosecond samples, in ms.
double PercentileMs(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]) / 1e6;
}

/// Exact percentiles: every sample is kept, none is bucketed.
ClassLatency Summarize(std::vector<uint64_t> ns) {
  ClassLatency s;
  std::sort(ns.begin(), ns.end());
  s.n = ns.size();
  if (ns.empty()) return s;
  s.p50_ms = PercentileMs(ns, 0.50);
  s.p90_ms = PercentileMs(ns, 0.90);
  s.p99_ms = PercentileMs(ns, 0.99);
  double sum = 0;
  for (uint64_t v : ns) sum += static_cast<double>(v);
  s.mean_ms = sum / static_cast<double>(ns.size()) / 1e6;
  s.max_supported_q = s.n > 10 ? 1.0 - 10.0 / static_cast<double>(s.n) : 0;
  return s;
}

// ---------------------------------------------------------------------
// Files.

void RemoveDbFiles(const std::string& path) {
  fs::path p(path);
  std::error_code ec;
  if (!fs::exists(p.parent_path(), ec)) return;
  const std::string stem = p.filename().string();
  for (const auto& entry : fs::directory_iterator(p.parent_path(), ec))
    if (entry.path().filename().string().rfind(stem, 0) == 0)
      fs::remove(entry.path(), ec);
}

const char* FsName(const std::string& dir) {
  struct statfs s;
  if (statfs(dir.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
  }
  return "other";
}

/// Compares `digest` with the one recorded by earlier runs under `key`
/// (recording it when there is none); false when they differ.
bool CheckDigest(const std::string& dir, const std::string& key,
                 uint64_t digest) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  std::string path = dir + "/" + key + ".txt";
  std::string want = StrFormat("%016llx", (unsigned long long)digest);
  std::ifstream in(path);
  std::string have;
  if (in >> have) {
    std::printf("op-log digest %s, earlier runs of this seed %s: %s\n",
                want.c_str(), have.c_str(),
                have == want ? "equal" : "DIFFERENT");
    return have == want;
  }
  std::ofstream(path) << want << "\n";
  std::printf("op-log digest %s (first run of this seed; recorded)\n",
              want.c_str());
  return true;
}

// ---------------------------------------------------------------------
// Setup: generate + load (+ checkpoint), repeated.

struct Loaded {
  std::unique_ptr<mdm::er::Database> mem;
  std::unique_ptr<mdm::er::DurableDatabase> durable;
  std::string path;  // durable only
  mdm::corpus::Corpus corpus;
  double setup_s = 0;
  double load_s = 0;  // LoadCorpus alone

  mdm::er::Database* db() { return durable ? durable->db() : mem.get(); }
};

mdm::Status SetUpOnce(const Workload& w, uint64_t seed,
                      const std::string& path, Loaded* out) {
  mdm::corpus::LoadOptions load;
  load.spec.seed = seed;
  load.spec.scores = kScores;
  load.spec.target_total_notes = kNotes;
  int64_t t0 = NowNs();
  mdm::er::Database* db = nullptr;
  if (w.durable) {
    RemoveDbFiles(path);
    MDM_ASSIGN_OR_RETURN(out->durable, mdm::er::DurableDatabase::Open(path));
    out->durable->EnableGroupCommit(mdm::er::CommitCoordinator::Options{});
    out->path = path;
    db = out->durable->db();
  } else {
    out->mem = std::make_unique<mdm::er::Database>();
    db = out->mem.get();
  }
  int64_t l0 = NowNs();
  MDM_ASSIGN_OR_RETURN(out->corpus, mdm::corpus::LoadCorpus(db, load));
  out->load_s = Seconds(NowNs() - l0);
  if (w.durable) MDM_RETURN_IF_ERROR(out->durable->Checkpoint());
  out->setup_s = Seconds(NowNs() - t0);
  return mdm::Status::OK();
}

struct Setup {
  Loaded loaded;  // the last of the kSetups
  double setup_s = 0;
  double notes_per_s = 0;
  double rss_bytes_per_note = 0;
};

mdm::Status SetUp(const Workload& w, uint64_t seed,
                  const std::string& path_prefix, Setup* out) {
  const double rss0 = PeakRssBytes();
  std::vector<double> setup_times, load_times;
  for (int k = 0; k < kSetups; ++k) {
    const std::string path = StrFormat("%s-%d.mdm", path_prefix.c_str(), k);
    out->loaded = Loaded{};
    MDM_RETURN_IF_ERROR(SetUpOnce(w, seed, path, &out->loaded));
    const Loaded& l = out->loaded;
    if (k == 0)
      out->rss_bytes_per_note = Ratio(
          PeakRssBytes() - rss0, static_cast<double>(l.corpus.total_notes));
    setup_times.push_back(l.setup_s);
    load_times.push_back(l.load_s);
    if (k + 1 < kSetups && w.durable) {
      out->loaded.durable.reset();
      RemoveDbFiles(path);
    }
  }
  const mdm::corpus::Corpus& c = out->loaded.corpus;
  out->setup_s = Median(setup_times);
  out->notes_per_s =
      Ratio(static_cast<double>(c.total_notes), Median(load_times));
  std::printf("setup: %zu scores, %lld notes, %lld measures; setup_s runs:",
              c.tenants.size(), (long long)c.total_notes,
              (long long)c.total_measures);
  for (double s : setup_times) std::printf(" %.4f", s);
  std::printf(" (median %.4f s)\n", out->setup_s);
  return mdm::Status::OK();
}

// ---------------------------------------------------------------------
// The measured closed loop.

struct Window {
  int64_t start = 0;         // clients started
  int64_t measure_from = 0;  // end of warm-up
  int64_t measure_to = 0;    // stop signalled
  int64_t end = 0;           // every client joined
  int64_t phase_ns[2] = {0, 0};  // time spent [untraced, traced]
};

/// Runs the clients: one warm-up second (ops count for correctness
/// only), then --seconds measured. A traced run alternates traced and
/// untraced phases throughout.
Window RunClients(const Args& a, Shared* shared,
                  std::vector<std::unique_ptr<Client>>* clients) {
  const int64_t run_ns = static_cast<int64_t>(a.seconds * 1e9);
  Window win;
  win.start = NowNs();
  win.measure_from = win.start + kWarmupNs;
  std::vector<std::thread> threads;
  for (auto& c : *clients) threads.emplace_back([&c] { c->Run(); });
  int64_t phase_start = win.start;
  bool tracing = false;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const int64_t now = NowNs();
    if (now - win.measure_from >= run_ns) {
      win.measure_to = now;
      break;
    }
    if (a.trace && now - phase_start >= kPhaseNs) {
      win.phase_ns[tracing] += now - phase_start;
      phase_start = now;
      tracing = !tracing;
      shared->tracing.store(tracing, std::memory_order_relaxed);
    }
  }
  shared->stop.store(true);
  for (std::thread& t : threads) t.join();
  win.end = NowNs();
  win.phase_ns[tracing] += win.end - phase_start;
  shared->tracing.store(false);
  return win;
}

/// Connects kClients clients to `db` (through `server` when it is set);
/// client c owns tenants c, c + kClients, ...
mdm::Status Connect(mdm::er::Database* db, const mdm::net::Server* server,
                    uint64_t seed, Shared* shared, std::vector<Tenant>* tenants,
                    std::vector<std::unique_ptr<Client>>* clients) {
  for (int c = 0; c < kClients; ++c) {
    mdm::Result<mdm::Connection> conn = mdm::Connection::Local(db);
    if (server != nullptr) {
      mdm::net::ClientOptions opts;
      opts.trace_seed = seed * 1000003ull + static_cast<uint64_t>(c) + 1;
      conn = mdm::Connection::Remote("127.0.0.1", server->port(), opts);
    }
    MDM_RETURN_IF_ERROR(conn.status());
    std::vector<Tenant*> mine;
    for (size_t i = static_cast<size_t>(c); i < tenants->size();
         i += kClients)
      mine.push_back(&(*tenants)[i]);
    clients->push_back(std::make_unique<Client>(shared, *std::move(conn),
                                                std::move(mine), c, NowNs));
  }
  return mdm::Status::OK();
}

// ---------------------------------------------------------------------
// Restart.

struct Restart {
  std::vector<double> times;
  int bad_tenants = 0;  // tenants missing an acknowledged write
  uint64_t attempted = 0, failed = 0;  // ops that built the fixed journal
  bool ok = true;
};

void CheckAcknowledged(mdm::er::Database* db,
                       const std::vector<Tenant>& tenants, Restart* r) {
  mdm::Connection conn = mdm::Connection::Local(db);
  std::vector<std::string> why;
  r->bad_tenants += VerifyAcknowledgedWrites(&conn, tenants, &why);
  for (const std::string& s : why) std::printf("  %s\n", s.c_str());
}

/// Journaled: the run's final state is closed, recovered once and
/// searched for every acknowledged write. Its journal grows with the
/// run's throughput, so recovery_s is timed on a journal of fixed
/// length instead: a fresh setup (snapshot at the checkpoint), then
/// kRecoveryOpsPerTenant seeded editor ops on every tenant from
/// kClients clients, closed and recovered kRestarts times. Recovery
/// only reads, so every reopen sees the same files.
Restart RestartJournaled(const Workload& w, uint64_t seed, Loaded* loaded,
                         const std::string& path_prefix,
                         const std::vector<Tenant>& tenants) {
  Restart r;
  loaded->durable.reset();
  {
    const int64_t t0 = NowNs();
    auto reopened = mdm::er::DurableDatabase::Open(loaded->path);
    const double open_s = Seconds(NowNs() - t0);
    if (!reopened.ok()) {
      std::printf("reopen failed: %s\n", reopened.status().ToString().c_str());
      r.ok = false;
    } else {
      CheckAcknowledged((*reopened)->db(), tenants, &r);
    }
    uint64_t acked = 0;
    for (const Tenant& t : tenants)
      acked += static_cast<uint64_t>(t.appended_measures + t.annotations);
    std::printf("restart of the run's final state: %.4f s; %llu acknowledged "
                "appends and annotations checked, %d tenants disagree\n",
                open_s, (unsigned long long)acked, r.bad_tenants);
  }
  RemoveDbFiles(loaded->path);
  if (!r.ok) return r;

  const std::string path = path_prefix + "-recovery.mdm";
  Loaded fixture;
  mdm::Status s = SetUpOnce(w, seed, path, &fixture);
  Shared shared;
  shared.weights[0] = 1;  // editors only
  for (int c = 1; c < kClassCount; ++c) shared.weights[c] = 0;
  shared.corpus = &fixture.corpus;
  shared.db = fixture.db();
  shared.stop = true;
  shared.min_ops = kRecoveryOpsPerTenant;
  std::vector<Tenant> fixed(fixture.corpus.tenants.size());
  for (size_t i = 0; i < fixed.size(); ++i)
    InitTenant(&fixture.corpus.tenants[i], seed, &fixed[i]);
  std::vector<std::unique_ptr<Client>> clients;
  if (s.ok())
    s = Connect(fixture.db(), nullptr, seed, &shared, &fixed, &clients);
  if (!s.ok()) {
    std::printf("recovery fixture failed: %s\n", s.ToString().c_str());
    clients.clear();
    fixture.durable.reset();
    RemoveDbFiles(path);
    r.ok = false;
    return r;
  }
  std::vector<std::thread> threads;
  for (auto& c : clients) threads.emplace_back([&c] { c->Run(); });
  for (std::thread& t : threads) t.join();
  clients.clear();
  fixture.durable.reset();
  r.attempted = shared.attempted.load();
  r.failed = shared.failed.load();
  for (const std::string& f : shared.failures)
    std::printf("  recovery fixture failure: %s\n", f.c_str());
  for (int k = 0; k < kRestarts && r.ok; ++k) {
    const int64_t t0 = NowNs();
    auto reopened = mdm::er::DurableDatabase::Open(path);
    r.times.push_back(Seconds(NowNs() - t0));
    if (!reopened.ok()) {
      std::printf("reopen failed: %s\n", reopened.status().ToString().c_str());
      r.ok = false;
    } else if (k == 0) {
      CheckAcknowledged((*reopened)->db(), fixed, &r);
    }
  }
  RemoveDbFiles(path);
  uint64_t wal_ops = 0;
  for (const Tenant& t : fixed) wal_ops += static_cast<uint64_t>(t.ops_done);
  std::printf("restart: DurableDatabase::Open (snapshot + replay of %llu "
              "editor ops), runs:",
              (unsigned long long)wal_ops);
  for (double t : r.times) std::printf(" %.4f", t);
  std::printf(" (median %.4f s); %d tenants disagree after both reopens\n",
              Median(r.times), r.bad_tenants);
  return r;
}

/// In memory: the run's final state is saved as a checksummed snapshot
/// and loaded back kRestarts times; the first copy is searched for every
/// acknowledged write.
Restart RestartInMemory(Loaded* loaded, const std::string& path_prefix,
                        const std::vector<Tenant>& tenants) {
  Restart r;
  const std::string path = path_prefix + ".snap";
  mdm::Status saved = mdm::er::SaveSnapshot(*loaded->db(), path);
  if (!saved.ok()) {
    std::printf("snapshot save failed: %s\n", saved.ToString().c_str());
    r.ok = false;
  }
  for (int k = 0; k < kRestarts && r.ok; ++k) {
    const int64_t t0 = NowNs();
    auto restored = mdm::er::LoadSnapshot(path);
    r.times.push_back(Seconds(NowNs() - t0));
    if (!restored.ok()) {
      std::printf("snapshot load failed: %s\n",
                  restored.status().ToString().c_str());
      r.ok = false;
    } else if (k == 0) {
      CheckAcknowledged(&*restored, tenants, &r);
    }
  }
  RemoveDbFiles(path);
  std::printf("restart: LoadSnapshot, runs:");
  for (double t : r.times) std::printf(" %.4f", t);
  std::printf(" (median %.4f s); %d tenants disagree\n", Median(r.times),
              r.bad_tenants);
  return r;
}

// ---------------------------------------------------------------------
// Per-layer metrics.

/// Mean cost of the raw er ordering predicates on sampled note pairs of
/// the note_on_staff ordering: the floor a QUEL ordering conjunct is
/// compared against.
void MeasureRawOrdering(mdm::er::Database* db, uint64_t seed,
                        double* before_ns, double* under_ns) {
  *before_ns = *under_ns = 0;
  std::shared_lock<std::shared_mutex> latch(db->latch());
  auto h = db->ResolveOrderingHandle("note_on_staff");
  if (!h.ok()) return;
  std::vector<mdm::er::EntityId> staffs;
  (void)db->ForEachEntity("STAFF", [&](mdm::er::EntityId id) {
    staffs.push_back(id);
    return true;
  });
  if (staffs.empty()) return;
  mdm::Rng rng(seed ^ 0x5DEECE66Dull);
  constexpr size_t kPairs = 20'000;
  struct Pair { mdm::er::EntityId a, b, staff; };
  std::vector<Pair> pairs;
  pairs.reserve(kPairs);
  while (pairs.size() < kPairs) {
    mdm::er::EntityId staff = staffs[rng.Uniform(staffs.size())];
    auto kids = db->Children(*h, staff);
    if (!kids.ok() || kids->size() < 2) continue;
    for (int i = 0; i < 64 && pairs.size() < kPairs; ++i)
      pairs.push_back({(*kids)[rng.Uniform(kids->size())],
                       (*kids)[rng.Uniform(kids->size())], staff});
  }
  // Warm the rank and interval indexes so the loops time lookups only.
  (void)db->Before(*h, pairs[0].a, pairs[0].b);
  (void)db->Under(*h, pairs[0].a, pairs[0].staff);
  uint64_t hits = 0;
  int64_t t0 = NowNs();
  for (const Pair& p : pairs) hits += db->Before(*h, p.a, p.b).value_or(false);
  int64_t t1 = NowNs();
  for (const Pair& p : pairs)
    hits += db->Under(*h, p.a, p.staff).value_or(false);
  int64_t t2 = NowNs();
  *before_ns = static_cast<double>(t1 - t0) / kPairs;
  *under_ns = static_cast<double>(t2 - t1) / kPairs;
  std::printf("raw ordering probes: %zu pairs, %llu true\n", kPairs,
              (unsigned long long)hits);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  const Workload* w;
  Delta d;
  double ops;      // timed calls, whole run
  double writes;   // editor calls
  double rows_returned;
  double scripts;  // scripts sent, batch statements counted singly
  double failed;
  uint64_t phase_ops[2];  // [untraced, traced] calls
  const Window* win;
  ProbeTotals probes;
  LayerTotals layers;
  double raw_before_ns, raw_under_ns;
  const Setup* setup;
};

std::vector<Metric> PerLayerMetrics(const LayerInputs& in) {
  const Delta& d = in.d;
  const double ops = in.ops;
  const double rows = d("mdm_quel_rows_scanned_total");
  const double conjuncts = d("mdm_quel_conjuncts_total");
  const double lookups = d("mdm_index_lookups_total");
  auto per_op_ms = [&](Layer l) {
    return Ratio(in.layers.self_ns[static_cast<int>(l)],
                 static_cast<double>(in.layers.roots)) / 1e6;
  };
  const double e2e_ms =
      Ratio(in.layers.root_ns, static_cast<double>(in.layers.roots)) / 1e6;
  // Over the wire, an op's time outside every server span is the round
  // trip itself (client library, kernel, loopback).
  const double rtt_us = in.w->remote ? e2e_ms * 1e3 : 0;
  const double wire_us = in.w->remote ? per_op_ms(Layer::kClient) * 1e3 : 0;
  const double untraced_rate = Ratio(static_cast<double>(in.phase_ops[0]),
                                     Seconds(in.win->phase_ns[0]));
  const double traced_rate = Ratio(static_cast<double>(in.phase_ops[1]),
                                   Seconds(in.win->phase_ns[1]));
  const ProbeTotals& p = in.probes;
  return {
      {"quel.rows_scanned_per_op", Ratio(rows, ops), "rows/op"},
      {"quel.conjuncts_per_op", Ratio(conjuncts, ops), "count/op"},
      {"quel.rows_scanned_per_row_returned", Ratio(rows, in.rows_returned),
       "ratio"},
      {"quel.ns_per_conjunct", Ratio(d.SpanSelfNs("quel.statement"), conjuncts),
       "ns"},
      {"er.before_ns", in.raw_before_ns, "ns"},
      {"er.under_ns", in.raw_under_ns, "ns"},
      {"quel.parse_us", Ratio(p.parse_ns, p.parse_n) / 1e3, "us"},
      {"quel.plan_us", Ratio(p.plan_ns, p.plan_n) / 1e3, "us"},
      {"quel.exec_us", d.SpanMeanNs("quel.statement") / 1e3, "us"},
      {"quel.parse_cache_hit_ratio",
       Ratio(d("mdm_quel_parse_cache_hits_total"), in.scripts), "ratio"},
      {"quel.snapshot_reads_per_op",
       Ratio(d("mdm_quel_snapshot_reads_total"), ops), "count/op"},
      {"quel.shared_latch_per_op", Ratio(d("mdm_quel_shared_latch_total"), ops),
       "count/op"},
      {"quel.exclusive_latch_per_op",
       Ratio(d("mdm_quel_exclusive_latch_total"), ops), "count/op"},
      {"er.snapshot_pin_fallbacks_per_op",
       Ratio(d("mdm_er_snapshot_pin_fallbacks_total"), ops), "count/op"},
      {"er.interval_rebuilds_per_write",
       Ratio(d("mdm_er_interval_rebuilds_total"), std::max(in.writes, 1.0)),
       "count/write"},
      {"er.interval_rebuild_ms", d.SpanMeanNs("er.interval_rebuild") / 1e6,
       "ms"},
      {"er.index_probes_per_op", Ratio(lookups, ops), "count/op"},
      {"er.index_fallback_ratio",
       Ratio(d("mdm_index_snapshot_fallbacks_total"), lookups), "ratio"},
      {"storage.fsyncs_per_commit",
       Ratio(d.SpanCount("storage.fsync"), d("mdm_wal_commits_total")),
       "ratio"},
      {"storage.fsync_us", d.SpanMeanNs("storage.fsync") / 1e3, "us"},
      {"storage.commit_batch_mean",
       Ratio(d("mdm_wal_commit_batch_size_sum"),
             d("mdm_wal_commit_batch_size_count")),
       "commits"},
      {"storage.wal_bytes_per_op", Ratio(d("mdm_wal_bytes_total"), ops),
       "B/op"},
      {"net.rtt_us", rtt_us, "us"},
      {"net.server_us", rtt_us - wire_us, "us"},
      {"net.wire_us", wire_us, "us"},
      {"net.encode_us", Ratio(p.encode_ns, p.encode_n) / 1e3, "us"},
      {"net.decode_us", Ratio(p.decode_ns, p.decode_n) / 1e3, "us"},
      {"net.bytes_per_op",
       Ratio(d("mdm_net_bytes_in_total") + d("mdm_net_bytes_out_total"), ops),
       "B/op"},
      {"net.retries_per_op", Ratio(d("mdm_net_client_retries_total"), ops),
       "count/op"},
      {"corpus.notes_per_s", in.setup->notes_per_s, "notes/s"},
      {"er.rss_bytes_per_note", in.setup->rss_bytes_per_note, "B/note"},
      {"obs.trace_overhead", Ratio(traced_rate, untraced_rate), "ratio"},
      {"layer.e2e_ms_per_op", e2e_ms, "ms"},
      {"layer.net_self_ms_per_op", per_op_ms(Layer::kNet), "ms"},
      {"layer.quel_self_ms_per_op", per_op_ms(Layer::kQuel), "ms"},
      {"layer.er_self_ms_per_op", per_op_ms(Layer::kEr), "ms"},
      {"layer.storage_self_ms_per_op", per_op_ms(Layer::kStorage), "ms"},
      {"layer.unattributed_ms_per_op", per_op_ms(Layer::kClient), "ms"},
      {"error_frac", Ratio(in.failed, ops), "ratio"},
  };
}

// ---------------------------------------------------------------------
// Output.

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  return StrFormat("%.9g", v);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-36s %14s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit);
  std::string out = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", (unsigned long long)attempted,
      (unsigned long long)failed);
  for (size_t i = 0; i < metrics.size(); ++i)
    out += StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", metrics[i].name.c_str(),
                     FormatNumber(metrics[i].value).c_str(), metrics[i].unit);
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------

int Run(const Args& a) {
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads)
    if (a.workload == w.name) wp = &w;
  if (wp == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  std::error_code ec;
  const std::string data_dir = a.out + "/data";
  fs::create_directories(data_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", data_dir.c_str());
    return 2;
  }
  const std::string tag =
      StrFormat("%s-s%llu", w.name, (unsigned long long)a.seed);
  const std::string path_prefix = data_dir + "/" + tag;

  std::printf("workload %s: %d closed-loop clients over %s, %d scores / "
              "%lld notes, mix E:A:T:L = %d:%d:%d:%d%s\n",
              w.name, kClients,
              w.remote ? "an in-process mdmd (loopback TCP)"
                       : "Connection::Local",
              kScores, (long long)kNotes, w.weights[0], w.weights[1],
              w.weights[2], w.weights[3],
              w.durable ? ", journaled with group commit and fsync" : "");
  if (w.durable)
    std::printf("journal directory filesystem: %s\n", FsName(data_dir));

  Setup setup;
  mdm::Status s = SetUp(w, a.seed, path_prefix, &setup);
  if (!s.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
    return 1;
  }
  // Peak memory. Where the run writes, its growth scales with how many
  // writes a time-bounded run lands, so only setup is counted there.
  double peak_rss_mb = PeakRssBytes() / (1024.0 * 1024.0);

  mdm::er::Database* db = setup.loaded.db();
  std::unique_ptr<mdm::net::Server> server;
  if (w.remote) {
    server = std::make_unique<mdm::net::Server>(db);
    s = server->Start();
    if (!s.ok()) {
      std::fprintf(stderr, "cannot start mdmd: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  Shared shared;
  std::copy(std::begin(w.weights), std::end(w.weights), shared.weights);
  shared.corpus = &setup.loaded.corpus;
  shared.db = db;
  shared.remote = w.remote;
  std::vector<Tenant> tenants(setup.loaded.corpus.tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i)
    InitTenant(&setup.loaded.corpus.tenants[i], a.seed, &tenants[i]);
  std::vector<std::unique_ptr<Client>> clients;
  s = Connect(db, server.get(), a.seed, &shared, &tenants, &clients);
  if (!s.ok()) {
    std::fprintf(stderr, "cannot connect: %s\n", s.ToString().c_str());
    return 1;
  }

  const Counters before = mdm::obs::Registry::Global()->CounterValues();
  const Window win = RunClients(a, &shared, &clients);
  const Counters after = mdm::obs::Registry::Global()->CounterValues();
  if (!w.writes()) peak_rss_mb = PeakRssBytes() / (1024.0 * 1024.0);

  // Throughput is the median of the measured one-second windows;
  // latency percentiles use every untraced call completed after the
  // warm-up, tail included.
  const size_t n_windows = static_cast<size_t>(
      std::max<int64_t>(1, (win.measure_to - win.measure_from) / kWindowNs));
  std::vector<double> window_ops(n_windows, 0);
  std::vector<uint64_t> by_class[kClassCount], all;
  uint64_t phase_ops[2] = {0, 0};
  for (const auto& c : clients)
    for (const OpSample& op : c->samples()) {
      ++phase_ops[op.traced];
      if (op.end_ns < win.measure_from) continue;
      size_t i = static_cast<size_t>((op.end_ns - win.measure_from) / kWindowNs);
      if (i < n_windows) ++window_ops[i];
      if (op.traced) continue;  // traced calls carry tracing cost
      by_class[op.cls].push_back(op.latency_ns);
      all.push_back(op.latency_ns);
    }
  const uint64_t attempted = shared.attempted.load();
  const double ops_per_s = Median(window_ops) * 1e9 / kWindowNs;
  std::printf("run: %llu ops in %.3f s (1 s warm-up, %zu s measured); "
              "ops/s per 1 s window:",
              (unsigned long long)attempted, Seconds(win.end - win.start),
              n_windows);
  for (double n : window_ops) std::printf(" %.0f", n);
  std::printf(" (median %.1f)\n", ops_per_s);
  if (a.trace)
    std::printf("  %llu ops traced, %llu untraced\n",
                (unsigned long long)phase_ops[1],
                (unsigned long long)phase_ops[0]);
  bool correct = true;
  for (int c = 0; c < kClassCount; ++c) {
    if (w.weights[c] == 0) continue;
    const ClassLatency l = Summarize(by_class[c]);
    std::printf("  %-10s n=%-6zu p50=%.4f ms  p90=%.4f ms  p99=%.4f ms  "
                "mean=%.4f ms  (highest percentile with >=10 samples "
                "beyond: p%.1f)\n",
                ClassName(static_cast<ClientClass>(c)), l.n, l.p50_ms,
                l.p90_ms, l.p99_ms, l.mean_ms, 100 * l.max_supported_q);
    if (!a.trace && l.n < kMinClassSamples) {
      std::printf("too few %s samples for a p90\n",
                  ClassName(static_cast<ClientClass>(c)));
      correct = false;
    }
  }
  const ClassLatency total = Summarize(all);
  std::printf("  %-10s n=%-6zu p50=%.4f ms  p90=%.4f ms\n", "all", total.n,
              total.p50_ms, total.p90_ms);

  const Delta d{before, after};
  if (w.durable)
    std::printf("  journal: %.0f commits, %.0f fsyncs (mean %.1f us), "
                "commit batch mean %.2f\n",
                d("mdm_wal_commits_total"), d.SpanCount("storage.fsync"),
                d.SpanMeanNs("storage.fsync") / 1e3,
                Ratio(d("mdm_wal_commit_batch_size_sum"),
                      d("mdm_wal_commit_batch_size_count")));

  // --- correctness ---------------------------------------------------
  const uint64_t failed =
      shared.failed.load() + static_cast<uint64_t>(d("mdm_net_shed_total") +
                                                   d("mdm_net_rejected_total"));
  if (failed > 0) correct = false;
  for (const std::string& f : shared.failures)
    std::printf("  failure: %s\n", f.c_str());
  if (!CheckDigest(a.out + "/digests", tag, OpLogDigest(tenants)))
    correct = false;

  double raw_before_ns = 0, raw_under_ns = 0;
  if (a.trace) MeasureRawOrdering(db, a.seed, &raw_before_ns, &raw_under_ns);

  ProbeTotals probes;
  std::vector<SpanLog> span_logs;
  for (auto& c : clients) {
    const ProbeTotals& p = c->probes();
    probes.parse_n += p.parse_n;
    probes.parse_ns += p.parse_ns;
    probes.plan_n += p.plan_n;
    probes.plan_ns += p.plan_ns;
    probes.encode_n += p.encode_n;
    probes.encode_ns += p.encode_ns;
    probes.decode_n += p.decode_n;
    probes.decode_ns += p.decode_ns;
    probes.trace_misses += p.trace_misses;
    span_logs.push_back(std::move(*c->mutable_spans()));
  }
  clients.clear();  // closes every connection
  if (server) server->Stop();
  const Restart restart =
      w.durable
          ? RestartJournaled(w, a.seed, &setup.loaded, path_prefix, tenants)
          : RestartInMemory(&setup.loaded, path_prefix, tenants);
  if (!restart.ok || restart.bad_tenants > 0 || restart.failed > 0)
    correct = false;

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = {
        {"setup_s", setup.setup_s, "s"},
        {"ops_per_s", ops_per_s, "1/s"},
        {"op_p50_ms", total.p50_ms, "ms"},
        {"op_p90_ms", total.p90_ms, "ms"},
        {"recovery_s", Median(restart.times), "s"},
        {"rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    LayerTotals layers;
    uint64_t dropped = 0;
    for (const SpanLog& log : span_logs) {
      AccumulateSelfTime(log, "client.op", &layers);
      dropped += log.dropped();
    }
    const std::string span_dir = a.out + "/spans";
    fs::create_directories(span_dir, ec);
    const std::string span_path = span_dir + "/" + tag + ".jsonl";
    if (!WriteSpans(span_path, span_logs))
      std::printf("cannot write %s\n", span_path.c_str());
    std::printf("trace: %llu traced ops, spans in %s (%llu dropped or "
                "truncated, %llu traces not found)\n",
                (unsigned long long)layers.roots, span_path.c_str(),
                (unsigned long long)dropped,
                (unsigned long long)probes.trace_misses);
    const double roots = static_cast<double>(layers.roots);
    std::printf("  self time per traced op: e2e %.4f ms =",
                Ratio(layers.root_ns, roots) / 1e6);
    for (Layer l : {Layer::kNet, Layer::kQuel, Layer::kEr, Layer::kStorage,
                    Layer::kClient}) {
      const double ns = layers.self_ns[static_cast<int>(l)];
      std::printf(" %s %.4f (%.1f%%)", LayerName(l), Ratio(ns, roots) / 1e6,
                  100 * Ratio(ns, layers.root_ns));
    }
    std::printf("\n");
    metrics = PerLayerMetrics(LayerInputs{
        &w, d, static_cast<double>(attempted),
        static_cast<double>(shared.class_ops[0].load()),
        static_cast<double>(shared.rows_returned.load()),
        static_cast<double>(shared.scripts.load()),
        static_cast<double>(failed), {phase_ops[0], phase_ops[1]}, &win,
        probes, layers, raw_before_ns, raw_under_ns, &setup});
  }
  PrintResult(correct, attempted + restart.attempted,
              failed + restart.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace mdmbench

int main(int argc, char** argv) {
  mdmbench::Args args;
  if (!mdmbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mdmbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n");
    return 2;
  }
  return mdmbench::Run(args);
}
