#include "fig1.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <shared_mutex>
#include <thread>

#include "common/strings.h"
#include "net/protocol.h"
#include "obs/trace.h"
#include "quel/planner.h"
#include "quel/quel.h"

namespace mdmbench {

using mdm::BatchResult;
using mdm::StrFormat;
using mdm::quel::ResultSet;
using mdm::rel::Value;

const char* ClassName(ClientClass c) {
  switch (c) {
    case ClientClass::kEditor: return "editor";
    case ClientClass::kAnalyzer: return "analyzer";
    case ClientClass::kTypesetter: return "typesetter";
    case ClientClass::kLibrarian: return "librarian";
  }
  return "unknown";
}

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void HashBytes(uint64_t* h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}
void HashStr(uint64_t* h, const std::string& s) {
  HashBytes(h, s.data(), s.size());
  HashBytes(h, "|", 1);
}
void HashInt(uint64_t* h, int64_t v) { HashBytes(h, &v, sizeof(v)); }

uint64_t HashKeys(const std::vector<int>& keys) {
  uint64_t h = kFnvOffset;
  for (int k : keys) HashInt(&h, k);
  return h;
}

const char* const kDynamicMarks[] = {"pp", "p", "mp", "mf", "f", "ff"};

/// Probes run on every Nth op of a traced phase.
constexpr uint64_t kProbeEvery = 8;

/// How long a remote client waits for the server to publish a traced
/// request (it publishes just after the last reply frame is sent).
constexpr int64_t kTraceWaitNs = 5'000'000;

std::string MeasureCountScript(const std::string& title) {
  return StrFormat(
      "range of m is MEASURE range of v is MOVEMENT range of s is SCORE "
      "retrieve (m.number) where m under v in measure_in_movement and "
      "v under s in movement_in_score and s.title = \"%s\"",
      title.c_str());
}

std::string AnnotationCountScript(int tenant) {
  return StrFormat(
      "range of a is ANNOTATION retrieve (c = count(a)) where a.xpos = %d",
      tenant);
}

}  // namespace

void Shared::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(failures_mu);
  if (failures.size() < 16) failures.push_back(what);
}

void InitTenant(const mdm::corpus::TenantModel* model, uint64_t seed,
                Tenant* t) {
  t->model = model;
  t->log_hash = kFnvOffset;
  t->rng = mdm::Rng(seed * 0x9E3779B97F4A7C15ull +
                    static_cast<uint64_t>(model->tenant + 1) *
                        0x94D049BB133111EBull);
  for (const auto& [key, n] : model->key_count)
    if (n <= 2) t->rare_keys.push_back(key);
  if (t->rare_keys.empty()) t->rare_keys.push_back(model->min_key);
}

uint64_t OpLogDigest(const std::vector<Tenant>& tenants) {
  uint64_t digest = 0;
  for (const Tenant& t : tenants) digest += t.log_hash;
  return digest;
}

Client::Client(Shared* shared, mdm::Connection conn,
               std::vector<Tenant*> tenants, int index, int64_t (*now_ns)())
    : shared_(shared),
      conn_(std::move(conn)),
      tenants_(std::move(tenants)),
      index_(index),
      now_ns_(now_ns) {}

void Client::Run() {
  for (;;) {
    bool ran = false;
    for (Tenant* t : tenants_) {
      if (shared_->stop.load(std::memory_order_relaxed) &&
          t->ops_done >= shared_->min_ops)
        continue;
      RunOneOp(t);
      ran = true;
    }
    if (!ran) return;
  }
}

ClientClass Client::PickClass(mdm::Rng* rng) const {
  const int* w = shared_->weights;
  int total = w[0] + w[1] + w[2] + w[3];
  int pick = static_cast<int>(rng->Uniform(static_cast<uint64_t>(total)));
  for (int i = 0; i < kClassCount; ++i) {
    pick -= w[i];
    if (pick < 0) return static_cast<ClientClass>(i);
  }
  return ClientClass::kLibrarian;
}

void Client::RunOneOp(Tenant* t) {
  switch (PickClass(&t->rng)) {
    case ClientClass::kEditor: EditorOp(t); break;
    case ClientClass::kAnalyzer: AnalyzerOp(t); break;
    case ClientClass::kTypesetter: TypesetterOp(t); break;
    case ClientClass::kLibrarian: LibrarianOp(t); break;
  }
  ++t->ops_done;
}

void Client::Check(Tenant* t, bool ok, const std::string& what) {
  if (ok) return;
  if (!last_failed_) {
    last_failed_ = true;
    shared_->failed.fetch_add(1, std::memory_order_relaxed);
  }
  shared_->Fail(StrFormat("t%d %s", t->model->tenant, what.c_str()));
}

template <typename Call>
auto Client::Timed(ClientClass cls, Call call) {
  last_failed_ = false;
  const uint64_t op = (static_cast<uint64_t>(index_ + 1) << 48) | ++seq_;
  traced_ = shared_->tracing.load(std::memory_order_relaxed);
  mdm::ExecOptions opts;
  if (traced_ && shared_->remote) opts.trace = mdm::ExecOptions::Trace::kForce;
  std::optional<mdm::obs::TraceContext> local_trace;
  const int64_t t0 = now_ns_();
  if (traced_ && !shared_->remote) local_trace.emplace(op, /*sampled=*/true);
  auto result = call(opts);
  const int64_t t1 = now_ns_();
  local_trace.reset();  // publishes the trace, outside the timing
  const uint64_t trace_id =
      !traced_ ? 0 : shared_->remote ? conn_.last_trace_id() : op;
  Finish(cls, traced_, trace_id, op, t0, t1);
  return result;
}

void Client::HashError(Tenant* t, const mdm::Status& status) {
  if (t->ops_done >= kDigestOps) return;
  HashStr(&t->log_hash, "error");
  HashInt(&t->log_hash, static_cast<int64_t>(status.code()));
}

ResultSet Client::Exec(Tenant* t, ClientClass cls, const char* name,
                       const std::string& script) {
  const bool digest = t->ops_done < kDigestOps;
  if (digest) HashStr(&t->log_hash, name);
  mdm::Result<ResultSet> rs = Timed(cls, [&](const mdm::ExecOptions& o) {
    return conn_.Execute(script, o);
  });
  shared_->scripts.fetch_add(1, std::memory_order_relaxed);
  if (!rs.ok()) {
    HashError(t, rs.status());
    Check(t, false,
          StrFormat("%s failed: %s", name, rs.status().message().c_str()));
    return ResultSet{};
  }
  shared_->rows_returned.fetch_add(rs->rows.size(),
                                   std::memory_order_relaxed);
  if (digest) {
    HashInt(&t->log_hash, static_cast<int64_t>(rs->affected));
    HashInt(&t->log_hash, static_cast<int64_t>(rs->rows.size()));
    for (const auto& row : rs->rows)
      for (const Value& v : row) HashStr(&t->log_hash, v.ToString());
  }
  if (traced_ && seq_ % kProbeEvery == 0) Probe(script, *rs);
  return *std::move(rs);
}

BatchResult Client::ExecBatch(Tenant* t, ClientClass cls, const char* name,
                              const std::vector<std::string>& scripts) {
  const bool digest = t->ops_done < kDigestOps;
  if (digest) HashStr(&t->log_hash, name);
  mdm::Result<BatchResult> br = Timed(cls, [&](const mdm::ExecOptions& o) {
    return conn_.ExecuteBatch(scripts, o);
  });
  shared_->scripts.fetch_add(scripts.size(), std::memory_order_relaxed);
  if (!br.ok()) {
    HashError(t, br.status());
    Check(t, false,
          StrFormat("%s failed: %s", name, br.status().message().c_str()));
    return BatchResult{};
  }
  Check(t, br->all_ok(),
        StrFormat("%s statement %zu failed: %s", name, br->failed_index(),
                  br->first_error().message().c_str()));
  shared_->rows_returned.fetch_add(br->last.rows.size(),
                                   std::memory_order_relaxed);
  if (digest) {
    HashInt(&t->log_hash, static_cast<int64_t>(br->statements.size()));
    for (const mdm::BatchStatementOutcome& st : br->statements) {
      HashInt(&t->log_hash, static_cast<int64_t>(st.status.code()));
      HashInt(&t->log_hash, static_cast<int64_t>(st.affected));
    }
    HashInt(&t->log_hash, static_cast<int64_t>(br->last.rows.size()));
    for (const auto& row : br->last.rows)
      for (const Value& v : row) HashStr(&t->log_hash, v.ToString());
  }
  if (traced_ && seq_ % kProbeEvery == 0) Probe(scripts.back(), br->last);
  return *std::move(br);
}

void Client::Finish(ClientClass cls, bool traced, uint64_t trace_id,
                    uint64_t op, int64_t t0, int64_t t1) {
  samples_.push_back(OpSample{static_cast<uint8_t>(cls), traced,
                              static_cast<uint64_t>(t1 - t0), t1});
  shared_->class_ops[static_cast<int>(cls)].fetch_add(
      1, std::memory_order_relaxed);
  shared_->attempted.fetch_add(1, std::memory_order_relaxed);
  if (!traced) return;
  int32_t root = spans_.Add("client.op", op, t0, t1, -1);
  std::shared_ptr<const mdm::obs::Trace> trace =
      mdm::obs::TraceRing::Global()->Find(trace_id);
  const int64_t wait_until = now_ns_() + kTraceWaitNs;
  while (trace == nullptr && shared_->remote && now_ns_() < wait_until) {
    std::this_thread::yield();
    trace = mdm::obs::TraceRing::Global()->Find(trace_id);
  }
  if (trace == nullptr) {
    ++probes_.trace_misses;
    return;
  }
  int64_t base = t0;
  if (shared_->remote) {
    // The server's clock origin is unknown to the client: centre the
    // outermost server span (net.request) inside the round trip.
    uint64_t server_ns = 0;
    for (const mdm::obs::TraceEvent& e : trace->events)
      if (e.depth == 1) server_ns = std::max(server_ns, e.dur_ns);
    int64_t slack = (t1 - t0) - static_cast<int64_t>(server_ns);
    base = t0 + std::max<int64_t>(slack, 0) / 2;
  }
  spans_.AddTrace(*trace, op, base, root);
}

void Client::Probe(const std::string& script, const ResultSet& rs) {
  const uint64_t op = (static_cast<uint64_t>(index_ + 1) << 48) | seq_;
  int64_t t0 = now_ns_();
  auto parsed = mdm::quel::ParseQuel(script);
  int64_t t1 = now_ns_();
  spans_.Add("probe.parse", op, t0, t1, -1);
  ++probes_.parse_n;
  probes_.parse_ns += static_cast<uint64_t>(t1 - t0);
  if (parsed.ok()) {
    std::map<std::string, std::string> ranges;
    for (const mdm::quel::Statement& st : *parsed) {
      using Kind = mdm::quel::Statement::Kind;
      if (st.kind == Kind::kRange) {
        for (const std::string& v : st.range_vars)
          ranges[mdm::AsciiLower(v)] = st.range_type;
        continue;
      }
      if (st.kind != Kind::kRetrieve && st.kind != Kind::kReplace) break;
      std::shared_lock<std::shared_mutex> latch(shared_->db->latch());
      t0 = now_ns_();
      auto plan = mdm::quel::PlanQuery(shared_->db, ranges, st, true);
      t1 = now_ns_();
      if (plan.ok()) {
        spans_.Add("probe.plan", op, t0, t1, -1);
        ++probes_.plan_n;
        probes_.plan_ns += static_cast<uint64_t>(t1 - t0);
      }
      break;
    }
  }
  t0 = now_ns_();
  std::vector<mdm::net::Frame> pages = mdm::net::EncodeResultSetPages(rs, 256);
  t1 = now_ns_();
  spans_.Add("probe.encode", op, t0, t1, -1);
  ++probes_.encode_n;
  probes_.encode_ns += static_cast<uint64_t>(t1 - t0);
  ResultSet decoded;
  bool done = false;
  t0 = now_ns_();
  for (const mdm::net::Frame& page : pages)
    if (!mdm::net::DecodeResultPage(page, &decoded, &done).ok()) break;
  t1 = now_ns_();
  spans_.Add("probe.decode", op, t0, t1, -1);
  ++probes_.decode_n;
  probes_.decode_ns += static_cast<uint64_t>(t1 - t0);
  if (!done || decoded.rows.size() != rs.rows.size()) {
    shared_->failed.fetch_add(1, std::memory_order_relaxed);
    shared_->Fail("result page encode/decode round trip lost rows");
  }
}

// --- the fig-1 ops (QUEL as in src/workload/driver.cc) ----------------

void Client::EditorOp(Tenant* t) {
  const int tenant = t->model->tenant;
  switch (t->rng.Uniform(3)) {
    case 0: {  // E1: append a measure at the end of the movement
      int number = t->model->measures + t->appended_measures + 1;
      BatchResult br = ExecBatch(
          t, ClientClass::kEditor, "E1-append-measure",
          {StrFormat("range of v is MOVEMENT range of s is SCORE "
                     "append to MEASURE (number = %d, meter_num = 4, "
                     "meter_den = 4) under v in measure_in_movement "
                     "where v under s in movement_in_score and "
                     "s.title = \"%s\"",
                     number, t->model->title.c_str())});
      uint64_t affected = br.statements.empty() ? 0 : br.statements[0].affected;
      Check(t, affected == 1,
            StrFormat("E1 affected %llu != 1", (unsigned long long)affected));
      if (affected == 1) ++t->appended_measures;
      break;
    }
    case 1: {  // E2: annotate, then read the tag count back
      BatchResult br = ExecBatch(
          t, ClientClass::kEditor, "E2-annotate",
          {StrFormat("append to ANNOTATION (text = \"mark-%d-%d\", "
                     "xpos = %d)",
                     tenant, t->annotations, tenant),
           AnnotationCountScript(tenant)});
      uint64_t affected = br.statements.empty() ? 0 : br.statements[0].affected;
      int64_t expect = static_cast<int64_t>(t->annotations) + 1;
      int64_t got = br.last.rows.empty() ? -1 : br.last.At(0, 0).AsInt();
      Check(t, affected == 1 && got == expect,
            StrFormat("E2 affected %llu, count %lld != %lld",
                      (unsigned long long)affected, (long long)got,
                      (long long)expect));
      if (affected == 1) ++t->annotations;
      break;
    }
    default: {  // E3: set a dynamic mark on every note of one pitch
      int key = t->model->keys[t->rng.Uniform(t->model->keys.size())];
      const char* mark =
          kDynamicMarks[t->rng.Uniform(std::size(kDynamicMarks))];
      BatchResult br = ExecBatch(
          t, ClientClass::kEditor, "E3-dynamics",
          {StrFormat("range of n is NOTE range of s is STAFF "
                     "replace n (dynamic = \"%s\") where "
                     "n under s in note_on_staff and s.number = %d "
                     "and n.midi_key = %d",
                     mark, tenant, key)});
      uint64_t affected = br.statements.empty() ? 0 : br.statements[0].affected;
      uint64_t expect = static_cast<uint64_t>(t->model->key_count.at(key));
      Check(t, affected == expect,
            StrFormat("E3 key %d affected %llu != %llu", key,
                      (unsigned long long)affected,
                      (unsigned long long)expect));
      break;
    }
  }
}

void Client::AnalyzerOp(Tenant* t) {
  const int tenant = t->model->tenant;
  switch (t->rng.Uniform(4)) {
    case 0: {  // A1: §5.6 before-count against a rare pitch
      int key = t->rare_keys[t->rng.Uniform(t->rare_keys.size())];
      ResultSet rs = Exec(
          t, ClientClass::kAnalyzer, "A1-before-count",
          StrFormat("range of n1, n2 is NOTE range of s is STAFF "
                    "retrieve (c = count(n1)) where "
                    "n1 before n2 in note_on_staff and "
                    "n2 under s in note_on_staff and s.number = %d "
                    "and n2.midi_key = %d",
                    tenant, key));
      // Each occurrence of `key` at staff position i has i predecessors.
      int64_t expect = 0;
      for (size_t i = 0; i < t->model->keys.size(); ++i)
        if (t->model->keys[i] == key) expect += static_cast<int64_t>(i);
      int64_t got = rs.rows.empty() ? -1 : rs.At(0, 0).AsInt();
      Check(t, got == expect,
            StrFormat("A1 key %d count %lld != %lld", key, (long long)got,
                      (long long)expect));
      break;
    }
    case 1: {  // A2: note count
      ResultSet rs = Exec(
          t, ClientClass::kAnalyzer, "A2-note-count",
          StrFormat("range of n is NOTE range of s is STAFF "
                    "retrieve (c = count(n)) where "
                    "n under s in note_on_staff and s.number = %d",
                    tenant));
      int64_t got = rs.rows.empty() ? -1 : rs.At(0, 0).AsInt();
      Check(t, got == t->model->notes,
            StrFormat("A2 count %lld != %d", (long long)got,
                      t->model->notes));
      break;
    }
    case 2: {  // A3: degree histogram (grouped aggregate)
      ResultSet rs = Exec(
          t, ClientClass::kAnalyzer, "A3-degree-hist",
          StrFormat("range of n is NOTE range of s is STAFF "
                    "retrieve (c = count(n by n.degree)) where "
                    "n under s in note_on_staff and s.number = %d",
                    tenant));
      std::map<int, int> got;
      for (size_t r = 0; r < rs.rows.size(); ++r)
        got[static_cast<int>(rs.At(r, 0).AsInt())] =
            static_cast<int>(rs.At(r, 1).AsInt());
      Check(t, got == t->model->degree_hist,
            StrFormat("A3 histogram mismatch (%zu groups)", rs.rows.size()));
      break;
    }
    default: {  // A4: pitch range
      ResultSet rs = Exec(
          t, ClientClass::kAnalyzer, "A4-range",
          StrFormat("range of n is NOTE range of s is STAFF "
                    "retrieve (lo = min(n.midi_key), hi = max(n.midi_key)) "
                    "where n under s in note_on_staff and s.number = %d",
                    tenant));
      int64_t lo = rs.rows.empty() ? -1 : rs.At(0, 0).AsInt();
      int64_t hi = rs.rows.empty() ? -1 : rs.At(0, 1).AsInt();
      Check(t, lo == t->model->min_key && hi == t->model->max_key,
            StrFormat("A4 range [%lld,%lld] != [%d,%d]", (long long)lo,
                      (long long)hi, t->model->min_key, t->model->max_key));
      break;
    }
  }
}

void Client::TypesetterOp(Tenant* t) {
  if (t->rng.Uniform(2) == 0) {  // T1: page through every note, in order
    ResultSet rs = Exec(
        t, ClientClass::kTypesetter, "T1-page-notes",
        StrFormat("range of n is NOTE range of s is STAFF "
                  "retrieve (n.midi_key, n.degree) where "
                  "n under s in note_on_staff and s.number = %d",
                  t->model->tenant));
    std::vector<int> got;
    got.reserve(rs.rows.size());
    for (size_t r = 0; r < rs.rows.size(); ++r)
      got.push_back(static_cast<int>(rs.At(r, 0).AsInt()));
    Check(t, HashKeys(got) == HashKeys(t->model->keys),
          StrFormat("T1 note sequence mismatch (%zu rows, %zu expected)",
                    got.size(), t->model->keys.size()));
  } else {  // T2: measure listing for pagination
    ResultSet rs = Exec(t, ClientClass::kTypesetter, "T2-measures",
                        MeasureCountScript(t->model->title));
    size_t expect =
        static_cast<size_t>(t->model->measures + t->appended_measures);
    Check(t, rs.rows.size() == expect,
          StrFormat("T2 measures %zu != %zu", rs.rows.size(), expect));
  }
}

void Client::LibrarianOp(Tenant* t) {
  if (t->rng.Uniform(2) == 0) {  // L1: thematic-index probe by incipit
    ResultSet rs = Exec(
        t, ClientClass::kLibrarian, "L1-incipit",
        StrFormat("range of e is CATALOG_ENTRY "
                  "retrieve (e.number) where e.incipit = \"%s\"",
                  t->model->incipit_text.c_str()));
    auto it = shared_->corpus->incipit_count.find(t->model->incipit_text);
    size_t expect = it == shared_->corpus->incipit_count.end()
                        ? 0
                        : static_cast<size_t>(it->second);
    Check(t, rs.rows.size() == expect,
          StrFormat("L1 incipit matches %zu != %zu", rs.rows.size(), expect));
    return;
  }
  // L2: lookup by catalog number, then by title; both must name the score.
  ResultSet by_number =
      Exec(t, ClientClass::kLibrarian, "L2-by-number",
           StrFormat("range of e is CATALOG_ENTRY "
                     "retrieve (e.title) where e.number = \"%s\"",
                     t->model->catalog_number.c_str()));
  ResultSet by_title =
      Exec(t, ClientClass::kLibrarian, "L2-by-title",
           StrFormat("range of e is CATALOG_ENTRY "
                     "retrieve (e.title) where e.title = \"%s\"",
                     t->model->title.c_str()));
  auto text = [](const ResultSet& rs) {
    if (rs.rows.size() != 1) return std::string();
    const Value& v = rs.At(0, 0);
    return v.type() == mdm::rel::ValueType::kString ? v.AsString()
                                                    : std::string();
  };
  Check(t,
        text(by_number) == t->model->title && text(by_title) == t->model->title,
        StrFormat("L2 by-number/by-title disagree (%zu vs %zu rows)",
                  by_number.rows.size(), by_title.rows.size()));
}

int VerifyAcknowledgedWrites(mdm::Connection* conn,
                             const std::vector<Tenant>& tenants,
                             std::vector<std::string>* why) {
  int bad = 0;
  for (const Tenant& t : tenants) {
    auto measures = conn->Execute(MeasureCountScript(t.model->title));
    auto notes = conn->Execute(AnnotationCountScript(t.model->tenant));
    size_t want_measures =
        static_cast<size_t>(t.model->measures + t.appended_measures);
    int64_t got_notes =
        notes.ok() && !notes->rows.empty() ? notes->At(0, 0).AsInt() : -1;
    if (!measures.ok() || measures->rows.size() != want_measures ||
        got_notes != t.annotations) {
      ++bad;
      if (why->size() < 16)
        why->push_back(StrFormat(
            "t%d after reopen: %zu measures (want %zu), %lld annotations "
            "(want %d)",
            t.model->tenant, measures.ok() ? measures->rows.size() : 0,
            want_measures, (long long)got_notes, t.annotations));
    }
  }
  return bad;
}

}  // namespace mdmbench
