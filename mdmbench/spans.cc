#include "spans.h"

#include <cstdio>
#include <cstring>
#include <map>

namespace mdmbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kClient: return "unattributed";
    case Layer::kNet: return "net";
    case Layer::kQuel: return "quel";
    case Layer::kEr: return "er";
    case Layer::kStorage: return "storage";
  }
  return "unknown";
}

Layer LayerOf(const char* span_name) {
  auto starts = [span_name](const char* prefix) {
    return std::strncmp(span_name, prefix, std::strlen(prefix)) == 0;
  };
  if (starts("net.")) return Layer::kNet;
  if (starts("quel.")) return Layer::kQuel;
  if (starts("er.")) return Layer::kEr;
  if (starts("storage.")) return Layer::kStorage;
  return Layer::kClient;
}

int32_t SpanLog::Add(const char* name, uint64_t op, int64_t start_ns,
                     int64_t end_ns, int32_t parent) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(SpanRec{name, op, start_ns, end_ns, parent});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::AddTrace(const mdm::obs::Trace& trace, uint64_t op,
                       int64_t base_ns, int32_t parent) {
  if (parent < 0) return;
  // Events arrive in close order, children before their parent. An
  // event at depth d adopts every event at depth d+1 closed since the
  // previous depth-d event; whatever is left at the top depth hangs
  // under `parent`.
  std::map<int, std::vector<int32_t>> pending;
  for (const mdm::obs::TraceEvent& e : trace.events) {
    int64_t start = base_ns + static_cast<int64_t>(e.start_ns);
    int32_t id = Add(e.name, op, start,
                     start + static_cast<int64_t>(e.dur_ns), parent);
    if (id < 0) return;
    auto kids = pending.find(e.depth + 1);
    if (kids != pending.end()) {
      for (int32_t k : kids->second) spans_[static_cast<size_t>(k)].parent = id;
      kids->second.clear();
    }
    pending[e.depth].push_back(id);
  }
  if (trace.truncated) ++dropped_;
}

void AccumulateSelfTime(const SpanLog& log, const char* root_name,
                        LayerTotals* totals) {
  const std::vector<SpanRec>& spans = log.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const SpanRec& s : spans)
    if (s.parent >= 0)
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  // Engine events are logged before the span that encloses them, so a
  // root is found by walking parent links rather than by log order.
  auto root_of = [&spans](size_t i) {
    while (spans[i].parent >= 0) i = static_cast<size_t>(spans[i].parent);
    return i;
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& root = spans[root_of(i)];
    if (std::strcmp(root.name, root_name) != 0) continue;
    int64_t dur = spans[i].end_ns - spans[i].start_ns;
    int64_t self = dur - child_ns[i];
    if (self < 0) self = 0;
    totals->self_ns[static_cast<int>(LayerOf(spans[i].name))] +=
        static_cast<double>(self);
    if (spans[i].parent < 0) {
      totals->root_ns += static_cast<double>(dur);
      ++totals->roots;
    }
  }
}

bool WriteSpans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t tid = 0; tid < logs.size(); ++tid) {
    const std::vector<SpanRec>& spans = logs[tid].spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRec& s = spans[i];
      std::fprintf(f,
                   "{\"tid\":%zu,\"id\":%zu,\"parent\":%d,\"op\":%llu,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   tid, i, s.parent, static_cast<unsigned long long>(s.op),
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace mdmbench
