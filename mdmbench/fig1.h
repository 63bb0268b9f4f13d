// The fig-1 client classes and their op templates, issued by the
// benchmark itself so every Connection::Execute/ExecuteBatch is timed
// exactly and every result is checked against the corpus oracle.
//
// The QUEL is the same as src/workload/driver.cc's. Each tenant (score)
// has its own seeded op stream and is owned by exactly one client, so a
// tenant's ops and results do not depend on how clients interleave.
#ifndef MDMBENCH_FIG1_H_
#define MDMBENCH_FIG1_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "corpus/loader.h"
#include "net/connection.h"
#include "spans.h"

namespace mdmbench {

enum class ClientClass { kEditor = 0, kAnalyzer, kTypesetter, kLibrarian };
inline constexpr int kClassCount = 4;
const char* ClassName(ClientClass c);

/// Ops per tenant folded into the op-log digest. Every run completes at
/// least this many ops on every tenant before it stops.
inline constexpr int kDigestOps = 4;

/// One tenant's op stream and oracle state; owned by one client thread.
struct Tenant {
  const mdm::corpus::TenantModel* model = nullptr;
  mdm::Rng rng{1};
  uint64_t log_hash = 0;
  int ops_done = 0;
  int appended_measures = 0;  // acknowledged E1 appends
  int annotations = 0;        // acknowledged E2 annotations
  std::vector<int> rare_keys;  // keys occurring at most twice (A1)
};

/// One timed client call.
struct OpSample {
  uint8_t cls = 0;
  bool traced = false;  // issued during a traced phase
  uint64_t latency_ns = 0;
  int64_t end_ns = 0;  // completion time on the run's clock
};

/// A sampled measurement of one layer's public function, taken after an
/// op completes and outside its timing.
struct ProbeTotals {
  uint64_t parse_n = 0, parse_ns = 0;    // quel::ParseQuel
  uint64_t plan_n = 0, plan_ns = 0;      // quel::PlanQuery
  uint64_t encode_n = 0, encode_ns = 0;  // net::EncodeResultSetPages
  uint64_t decode_n = 0, decode_ns = 0;  // net::DecodeResultPage, all pages
  uint64_t trace_misses = 0;  // traced ops whose engine trace was not found
};

/// State every client shares: the mix, the corpus, the trace switch and
/// the failure log.
struct Shared {
  int weights[kClassCount] = {2, 3, 3, 2};
  const mdm::corpus::Corpus* corpus = nullptr;
  mdm::er::Database* db = nullptr;  // for the parse/plan probes
  bool remote = false;
  std::atomic<bool> stop{false};
  int min_ops = kDigestOps;  // ops every tenant completes, stop or not
  std::atomic<bool> tracing{false};
  std::atomic<uint64_t> class_ops[kClassCount] = {};
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> rows_returned{0};
  std::atomic<uint64_t> scripts{0};  // scripts sent (batch statements count)
  std::mutex failures_mu;
  std::vector<std::string> failures;  // the first few, for the report

  void Fail(const std::string& what);
};

/// One closed-loop client: a Connection plus the tenants it owns. It
/// sends its next op only after the previous reply arrived.
class Client {
 public:
  Client(Shared* shared, mdm::Connection conn, std::vector<Tenant*> tenants,
         int index, int64_t (*now_ns)());
  Client(const Client&) = delete;  // a client thread holds its address
  Client& operator=(const Client&) = delete;

  /// Runs ops round-robin over the owned tenants until Shared::stop is
  /// set and every owned tenant has done Shared::min_ops ops.
  void Run();

  const std::vector<OpSample>& samples() const { return samples_; }
  SpanLog* mutable_spans() { return &spans_; }
  const ProbeTotals& probes() const { return probes_; }

 private:
  ClientClass PickClass(mdm::Rng* rng) const;
  void RunOneOp(Tenant* t);
  void EditorOp(Tenant* t);
  void AnalyzerOp(Tenant* t);
  void TypesetterOp(Tenant* t);
  void LibrarianOp(Tenant* t);

  /// Issues one call through `call(opts)` and records it as one timed
  /// op of `cls`; in a traced phase the call runs under a sampled trace.
  template <typename Call>
  auto Timed(ClientClass cls, Call call);
  /// Times one script; returns an empty result set on failure.
  mdm::quel::ResultSet Exec(Tenant* t, ClientClass cls, const char* name,
                            const std::string& script);
  /// Times one batch as a single op.
  mdm::BatchResult ExecBatch(Tenant* t, ClientClass cls, const char* name,
                             const std::vector<std::string>& scripts);
  /// Records the sample and, when traced, the op's span tree.
  void Finish(ClientClass cls, bool traced, uint64_t trace_id, uint64_t op,
              int64_t t0, int64_t t1);
  void Probe(const std::string& script, const mdm::quel::ResultSet& rs);
  void Check(Tenant* t, bool ok, const std::string& what);
  void HashError(Tenant* t, const mdm::Status& status);

  Shared* shared_;
  mdm::Connection conn_;
  std::vector<Tenant*> tenants_;
  int index_;
  int64_t (*now_ns_)();
  uint64_t seq_ = 0;
  bool last_failed_ = false;  // the current call already counted as failed
  bool traced_ = false;       // the current call ran in a traced phase
  std::vector<OpSample> samples_;
  SpanLog spans_;
  ProbeTotals probes_;
};

/// Digest of a run's first kDigestOps ops per tenant, order-independent
/// across tenants.
uint64_t OpLogDigest(const std::vector<Tenant>& tenants);

/// Seeds one tenant's op stream from the workload seed.
void InitTenant(const mdm::corpus::TenantModel* model, uint64_t seed,
                Tenant* t);

/// Checks, through `conn`, that every acknowledged E1 append and E2
/// annotation of every tenant is present. Returns the number of tenants
/// that disagree; descriptions go to `*why`.
int VerifyAcknowledgedWrites(mdm::Connection* conn,
                             const std::vector<Tenant>& tenants,
                             std::vector<std::string>* why);

}  // namespace mdmbench

#endif  // MDMBENCH_FIG1_H_
