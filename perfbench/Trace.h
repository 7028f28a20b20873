//===- perfbench/Trace.h - In-memory span recorder for the benchmark -----===//
//
// Spans the benchmark records around its own calls into each SacFD layer:
// name, start, end, parent span and run id.  They stay in memory while the
// run executes and are written out once at exit (Chrome trace-event JSON,
// viewable in chrome://tracing or Perfetto).  Recording is off unless the
// traced run turns it on, so the end-to-end runs pay one predictable
// branch per span site.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  const char *Name;
  uint64_t StartNs;
  uint64_t EndNs;
  /// Index of the enclosing span in Tracer::spans(), or -1 at top level.
  int64_t Parent;
  unsigned RunId;
};

class Tracer {
public:
  void setEnabled(bool On) { Enabled = On; }
  /// Every span opened from now on belongs to run \p Id.
  void setRun(unsigned Id) { RunId = Id; }

  /// Opens a span; \returns its index (or -1 when disabled).
  int64_t open(const char *Name) {
    if (!Enabled)
      return -1;
    int64_t Parent = Stack.empty() ? -1 : Stack.back();
    Spans.push_back({Name, nowNs(), 0, Parent, RunId});
    Stack.push_back(static_cast<int64_t>(Spans.size() - 1));
    return Stack.back();
  }
  void close(int64_t Index) {
    if (Index < 0)
      return;
    Spans[static_cast<size_t>(Index)].EndNs = nowNs();
    Stack.pop_back();
  }

  const std::vector<SpanRecord> &spans() const { return Spans; }

  /// Total duration of spans named \p Name that started at or after
  /// \p SinceNs, in nanoseconds.
  uint64_t totalNs(const char *Name, uint64_t SinceNs = 0) const {
    uint64_t T = 0;
    for (const SpanRecord &S : Spans)
      if (S.StartNs >= SinceNs && std::string(S.Name) == Name)
        T += S.EndNs - S.StartNs;
    return T;
  }

  /// Number of spans named \p Name.
  size_t count(const char *Name) const {
    size_t N = 0;
    for (const SpanRecord &S : Spans)
      N += std::string(S.Name) == Name;
    return N;
  }

  /// Self time per layer (the span-name prefix before the first '.'):
  /// each span's duration minus what its direct children cover.
  std::map<std::string, double> selfMsByLayer() const {
    std::vector<uint64_t> ChildNs(Spans.size(), 0);
    for (const SpanRecord &S : Spans)
      if (S.Parent >= 0)
        ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
    std::map<std::string, double> Out;
    for (size_t I = 0; I < Spans.size(); ++I) {
      std::string Name = Spans[I].Name;
      std::string Layer = Name.substr(0, Name.find('.'));
      uint64_t Dur = Spans[I].EndNs - Spans[I].StartNs;
      Out[Layer] += static_cast<double>(Dur - ChildNs[I]) * 1e-6;
    }
    return Out;
  }

  /// Writes the spans as Chrome trace-event JSON.  \returns false when
  /// the file cannot be written.
  bool writeChromeTrace(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
    std::fprintf(F, "{\"traceEvents\": [\n");
    for (size_t I = 0; I < Spans.size(); ++I) {
      const SpanRecord &S = Spans[I];
      std::fprintf(F,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %lld, \"run\": %u}}\n",
                   I ? "," : "", S.Name, (S.StartNs - Base) * 1e-3,
                   (S.EndNs - S.StartNs) * 1e-3, I,
                   static_cast<long long>(S.Parent), S.RunId);
    }
    std::fprintf(F, "]}\n");
    return std::fclose(F) == 0;
  }

private:
  bool Enabled = false;
  unsigned RunId = 0;
  std::vector<SpanRecord> Spans;
  std::vector<int64_t> Stack;
};

/// The process-wide recorder.
inline Tracer &tracer() {
  static Tracer T;
  return T;
}

/// RAII span around one call into a layer.
class Span {
public:
  explicit Span(const char *Name) : Index(tracer().open(Name)) {}
  ~Span() { tracer().close(Index); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int64_t Index;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
