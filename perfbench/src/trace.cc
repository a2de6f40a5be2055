#include "trace.h"

#include <cstdio>
#include <thread>

namespace perfbench {

Tracer* g_tracer = nullptr;

namespace {
const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();
}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

void SleepUntilNs(int64_t ns) {
  std::this_thread::sleep_until(kEpoch + std::chrono::nanoseconds(ns));
}

namespace {
std::vector<std::string>& Names() {
  static std::vector<std::string> names;
  return names;
}
}  // namespace

uint32_t SpanId(const std::string& name) {
  std::vector<std::string>& names = Names();
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<uint32_t>(i);
  }
  names.push_back(name);
  return static_cast<uint32_t>(names.size() - 1);
}

const std::string& SpanName(uint32_t id) { return Names()[id]; }

int32_t Tracer::Begin(uint32_t name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(s);
  int32_t idx = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(idx);
  return idx;
}

void Tracer::End(int32_t span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
  // Spans close in LIFO order (they are scoped); tolerate nothing else.
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::map<std::string, int64_t> Tracer::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[SpanName(spans_[i].name)] += self[i];
  }
  return out;
}

std::string Tracer::ToJson(size_t max_spans) const {
  std::string out = "{\"traceEvents\":[";
  int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[256];
  for (size_t i = 0; i < spans_.size() && i < max_spans; ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", SpanName(s.name).c_str(),
                  static_cast<double>(s.start_ns - base) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
