// Span recording for the benchmark's traced run.
//
// The benchmark times every client call itself (a `client.op` span per
// Connection::Execute/ExecuteBatch). In a traced phase it also installs
// or requests an always-sampled obs::TraceContext around the call, so
// the spans the engine already closes (net.request, quel.statement,
// quel.index_probe, er.interval_rebuild, storage.fsync) are collected
// from obs::TraceRing and hung under that op. Nothing new is
// instrumented inside the engine.
//
// Spans stay in memory, one log per client thread, and are written out
// as JSON lines when the run ends.
#ifndef MDMBENCH_SPANS_H_
#define MDMBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace mdmbench {

/// The layers self time is attributed to. `kClient` is the part of an
/// op's end-to-end time that no engine span covers: the unattributed
/// remainder (client library, queueing, latch waits outside spans and,
/// over the wire, the round trip itself).
enum class Layer { kClient = 0, kNet, kQuel, kEr, kStorage };
inline constexpr int kLayerCount = 5;
const char* LayerName(Layer layer);
/// Maps a span name to its layer by prefix ("quel.statement" -> kQuel).
Layer LayerOf(const char* span_name);

struct SpanRec {
  const char* name = "";  // string literal or engine span name
  uint64_t op = 0;        // op id; every span of one op shares it
  int64_t start_ns = 0;   // steady-clock nanoseconds since run start
  int64_t end_ns = 0;
  int32_t parent = -1;    // index into the same SpanLog, -1 for a root
};

/// One client thread's spans. Not thread-safe: one log per thread.
class SpanLog {
 public:
  /// Adds a span and returns its index (for children's `parent`).
  int32_t Add(const char* name, uint64_t op, int64_t start_ns,
              int64_t end_ns, int32_t parent);

  /// Hangs an engine trace's events under `parent`. Events carry start
  /// offsets relative to the trace's own start; `base_ns` places that
  /// start on the run's clock. Nesting is rebuilt from the events'
  /// close order and depth.
  void AddTrace(const mdm::obs::Trace& trace, uint64_t op, int64_t base_ns,
                int32_t parent);

  const std::vector<SpanRec>& spans() const { return spans_; }
  /// Spans refused at the cap, plus engine traces that overflowed their
  /// own event buffer (their tail is missing).
  uint64_t dropped() const { return dropped_; }

 private:
  static constexpr size_t kMaxSpans = 1'000'000;
  std::vector<SpanRec> spans_;
  uint64_t dropped_ = 0;
};

/// Self time (duration minus the part covered by child spans) summed
/// per layer over every root span named `root_name` and its subtree.
struct LayerTotals {
  double self_ns[kLayerCount] = {};
  double root_ns = 0;  // summed end-to-end duration of the roots
  uint64_t roots = 0;
};
void AccumulateSelfTime(const SpanLog& log, const char* root_name,
                        LayerTotals* totals);

/// Writes every span of every log as one JSON object per line:
/// {"tid":..,"id":..,"parent":..,"op":..,"name":..,"start_ns":..,
///  "end_ns":..}. Returns false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<SpanLog>& logs);

}  // namespace mdmbench

#endif  // MDMBENCH_SPANS_H_
