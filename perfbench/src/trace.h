// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps every call it makes into a library layer (the
// request stream, the async engine, the shard front end, the flash
// device, the maintenance plane, recovery) in a span: name, start, end,
// parent span and the request it serves. Spans are only recorded on the
// driving thread; completion callbacks that fire on shard worker threads
// are not traced. Nothing is written while the run measures: the spans
// stay in a vector and are summarised (per-layer self time) or dumped at
// the end.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// The call sites the benchmark traces, one per public entry point.
enum class SpanName : uint8_t {
  kWorkloadNext = 0,   // RequestStream::Next
  kEngineSubmit,       // Ftl::SubmitAsync
  kEnginePoll,         // Ftl::Poll
  kEngineNextDue,      // Ftl::NextCompletionUs
  kFlashAdvance,       // FlashDevice::AdvanceTo
  kGcIdleTick,         // Ftl::IdleTick
  kShardSubmit,        // ShardedFtl::SubmitAsync / SubmitAsyncAt
  kShardWait,          // waiting for shard workers (DrainAsync, completions)
  kRecovery,           // Ftl::CrashAndRecover
  kBenchComplete,      // the benchmark's own completion handling + oracle
  kCount,
};

/// Layer a span's self time is charged to (the repository's module names).
inline const char* SpanLayer(SpanName name) {
  switch (name) {
    case SpanName::kWorkloadNext: return "workload";
    case SpanName::kEngineSubmit:
    case SpanName::kEnginePoll:
    case SpanName::kEngineNextDue: return "ftl.engine";
    case SpanName::kFlashAdvance: return "flash";
    case SpanName::kGcIdleTick: return "ftl.gc";
    case SpanName::kShardSubmit:
    case SpanName::kShardWait: return "ftl.shard";
    case SpanName::kRecovery: return "ftl.recovery";
    case SpanName::kBenchComplete:
    case SpanName::kCount: break;
  }
  return "bench";
}

inline const char* SpanLabel(SpanName name) {
  static const char* const kLabels[] = {
      "workload.next",     "ftl.engine.submit", "ftl.engine.poll",
      "ftl.engine.next_due", "flash.advance",   "ftl.gc.idle_tick",
      "ftl.shard.submit",  "ftl.shard.wait",    "ftl.recovery",
      "bench.complete"};
  return kLabels[static_cast<int>(name)];
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;  // benchmark request id; 0 = not request-scoped
  int32_t parent = -1;   // index of the enclosing span, -1 at top level
  SpanName name = SpanName::kCount;
};

/// Per call site: calls, total and self (minus child spans) nanoseconds.
struct SpanTotals {
  uint64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;

  double MeanSelfNs() const {
    return calls > 0 ? static_cast<double>(self_ns) / calls : 0.0;
  }
};

class Tracer {
 public:
  /// RAII span. A null tracer makes it a no-op, so untraced runs pay one
  /// branch per call site.
  class Scope {
   public:
    Scope(Tracer* tracer, SpanName name, uint64_t request) : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->Open(name, request);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

  explicit Tracer(size_t reserve) { spans_.reserve(reserve); }

  /// Per-call-site totals over the spans that start before `until_ns`.
  std::vector<SpanTotals> Totals(int64_t until_ns) const {
    std::vector<SpanTotals> totals(static_cast<size_t>(SpanName::kCount));
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.start_ns >= until_ns) continue;
      SpanTotals& t = totals[static_cast<size_t>(s.name)];
      ++t.calls;
      t.total_ns += s.end_ns - s.start_ns;
      t.self_ns += s.end_ns - s.start_ns - child_ns[i];
    }
    return totals;
  }

  /// Writes the first `max_spans` spans, one tab-separated line each:
  /// id, parent, request, name, layer, start_ns, end_ns (start-relative).
  /// A full run records millions of spans; the prefix shows their shape.
  bool Dump(const std::string& path, size_t max_spans) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    const size_t n = std::min(max_spans, spans_.size());
    std::fprintf(f, "# first %zu of %zu spans\n", n, spans_.size());
    std::fprintf(f, "id\tparent\trequest\tname\tlayer\tstart_ns\tend_ns\n");
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%d\t%llu\t%s\t%s\t%lld\t%lld\n", i, s.parent,
                   static_cast<unsigned long long>(s.request),
                   SpanLabel(s.name), SpanLayer(s.name),
                   static_cast<long long>(s.start_ns - base),
                   static_cast<long long>(s.end_ns - base));
    }
    return std::fclose(f) == 0;
  }

 private:
  int32_t Open(SpanName name, uint64_t request) {
    Span s;
    s.name = name;
    s.request = request;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = NowNs();
    spans_.push_back(s);
    int32_t index = static_cast<int32_t>(spans_.size() - 1);
    open_.push_back(index);
    return index;
  }
  void Close(int32_t index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
