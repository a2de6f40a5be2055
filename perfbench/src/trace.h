// In-memory span recorder for the stepped (single-threaded) driver. Spans
// are recorded around the benchmark's calls into each layer, kept in memory
// and written out once the run ends; a layer's self time is its duration
// minus the time covered by its child spans.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Steady-clock ns since the process started. Event due times (the `g`
// column) use this clock; kept small so they stay exact where the engine
// aggregates them as doubles (max(g)).
int64_t NowNs();
void SleepUntilNs(int64_t ns);

// Stable id for a span name. Call while setting up (not thread-safe).
uint32_t SpanId(const std::string& name);
const std::string& SpanName(uint32_t id);

class Tracer {
 public:
  struct Span {
    uint32_t name = 0;
    int32_t parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  // Not thread-safe: one tracer serves one driving thread.
  int32_t Begin(uint32_t name);
  void End(int32_t span);

  // Self time per span name (ns).
  std::map<std::string, int64_t> SelfTimes() const;
  size_t num_spans() const { return spans_.size(); }
  // Chrome trace_event JSON ("X" events, µs), at most `max_spans` spans.
  std::string ToJson(size_t max_spans) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // stack of open span indices
};

// The tracer the sinks and driver record into; null when tracing is off.
// Only the stepped driver sets it, and only for its own thread's run.
extern Tracer* g_tracer;

// RAII span on g_tracer; costs one null check when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(uint32_t name)
      : span_(g_tracer != nullptr ? g_tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (span_ >= 0) g_tracer->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
