// Workload definitions, the engine set-ups under test and the two drivers:
// the threaded driver (open and closed loop against Start()) and the
// stepped driver that fires the Petri net's transitions itself.
#ifndef PERFBENCH_DRIVE_H_
#define PERFBENCH_DRIVE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/transition.h"
#include "oracle.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

using Metrics = std::map<std::string, double>;

// Fixed, absolute load settings: identical on every commit measured.
struct WorkloadConfig {
  const char* name;
  std::vector<QueryKind> queries;
  double low_rate;          // tuples/s, open loop
  double high_rate;         // tuples/s, open loop
  double latency_limit_us;  // p99 limit for the sustainable ladder
  std::vector<double> ladder;  // rates, ascending
  size_t ladder_start;         // index the search starts from
};

const WorkloadConfig* FindWorkload(const std::string& name);

// Closed loop: the generator keeps at most this many input tuples whose
// results are not all delivered, sending kChunk tuples at a time.
inline constexpr int64_t kInFlightWindow = 65536;
inline constexpr int64_t kChunk = 1024;

// One engine set up for a workload: DDL, static load, queries, sinks.
class Target {
 public:
  static datacell::Result<std::unique_ptr<Target>> Create(
      const WorkloadConfig& w, const Inputs& in);
  virtual ~Target() = default;

  // Builds the next chunk: stream positions [first, first + g.size()).
  virtual void Prepare(int64_t first, const std::vector<int64_t>& g) = 0;
  // Hands the prepared chunk to the engine (channel push or ingest).
  virtual datacell::Status Push() = 0;
  virtual datacell::Status Start() = 0;
  virtual void Stop() = 0;
  virtual void SetProfiling(bool on) = 0;
  virtual int64_t ChannelBacklog() const { return 0; }
  virtual int64_t BasketBacklog() const = 0;
  // Engine counters (threaded run) into per-layer metrics.
  virtual void ScrapeCounters(Metrics* m) const = 0;
  // Profiler step times (stepped traced run), per input tuple.
  virtual void ScrapeProfile(Metrics* m) const = 0;

  // The transitions the stepped driver fires, in sweep order.
  struct Stage {
    uint32_t span;
    std::string query;  // "" for the receptor
    datacell::Transition* t;
    int64_t tuples = 0;
  };
  std::vector<Stage>& stages() { return stages_; }
  // Sharded only: runs the frontend merge after the shard sweeps.
  virtual datacell::Status Frontend() { return datacell::Status::OK(); }
  virtual bool has_frontend() const { return false; }
  // Span name of Push() in the ledger and its per-layer metric.
  virtual const char* push_layer() const = 0;

  const std::vector<std::unique_ptr<QuerySink>>& sinks() const {
    return sinks_;
  }
  double setup_s() const { return setup_s_; }
  double static_load_us() const { return static_load_us_; }
  double submit_us_per_query() const { return submit_us_per_query_; }
  // Lines the receptors dropped as malformed; tuples the baskets shed.
  virtual int64_t malformed() const = 0;
  virtual int64_t shed() const = 0;

 protected:
  explicit Target(const Inputs& in) : in_(in) {}

  const Inputs& in_;
  std::vector<std::unique_ptr<QuerySink>> sinks_;
  std::vector<Stage> stages_;
  double setup_s_ = 0, static_load_us_ = 0, submit_us_per_query_ = 0;
};

inline constexpr double kDisturbedLateUs = 1000;

// Result of one threaded load phase.
struct Phase {
  int64_t tuples = 0;             // sent in the phase
  double seconds = 0;             // sending time
  std::vector<double> sub_tps;    // accounted tuples/s per sub-window
  std::vector<double> sub_p50_us, sub_p99_us;
  // Per sub-window: how late the generator woke (open loop) or its longest
  // gap between sends (closed loop).
  std::vector<double> sub_late_us;
  LatencyHistogram latency;       // all rows of the phase
  std::map<std::string, LatencyHistogram> by_query;
  double cpu_s = 0;  // process CPU but the generator's, sending + draining
  double gen_late_max_us = 0;     // open loop: latest wake-up
  int64_t end_inflight = 0;       // unaccounted tuples when sending ended
  int64_t accounted_in_phase = 0; // accounted while sending
  std::vector<int64_t> channel_backlog, basket_backlog;  // samples
  bool drained = true;
  bool aborted = false;           // open loop stopped at abort_backlog

  // Share of sub-windows in which the generator itself was held off the
  // CPU: more than kDisturbedLateUs late (open loop) or without a send for
  // that long (closed loop). Over half means the host, not the engine, set
  // the numbers.
  double disturbed_share() const;
  bool disturbed() const { return disturbed_share() > 0.5; }
};

// Probes until the host is quiet or the deadline passes; returns the
// seconds spent. Quiet: a thread that sleeps kSendPeriodNs at a time, as the
// open-loop generator does, wakes within kDisturbedLateUs for 250 ms.
double WaitForQuietHost(int64_t deadline_ns);

// Drives a started Target from one generator thread (the caller's).
class ThreadedDriver {
 public:
  ThreadedDriver(const Inputs& in, Target* t) : in_(in), t_(t) {}

  Phase ClosedLoop(double seconds, int subwindows);
  // Stops sending early once more than `abort_backlog` tuples (when > 0)
  // are unaccounted for: the rate is plainly not sustained.
  Phase OpenLoop(double rate, double seconds, int subwindows,
                 int64_t abort_backlog = 0);
  const datacell::Status& error() const { return error_; }
  int64_t sent() const { return sent_; }
  int64_t Accounted() const;
  // Waits until every sent tuple is accounted for; false on timeout.
  bool WaitDrained(double timeout_s);

 private:
  void Send(const std::vector<int64_t>& g);
  // Moves the sinks' latency samples into `p`; `record` adds the
  // sub-window's percentiles and generator lateness to its series.
  void CloseSubwindow(Phase* p, bool record);

  const Inputs& in_;
  Target* t_;
  int64_t sent_ = 0;
  double sub_late_us_ = 0;   // generator lateness in the current sub-window
  datacell::Status error_;
};

// Stepped driver: pushes a chunk per round, then fires every Ready()
// transition until the net is quiescent. With a tracer, each call is a span.
// Stops after `seconds` or, when max_tuples >= 0, after that many tuples.
struct SteppedResult {
  int64_t tuples = 0;
  double wall_s = 0;
  datacell::Status status;
};
SteppedResult RunStepped(Target* t, double seconds, Tracer* tracer,
                         int64_t max_tuples = -1);

// CPU seconds used by the process so far (getrusage).
double ProcessCpuSeconds();
// CPU seconds used by the calling thread so far.
double ThreadCpuSeconds();
// VmHWM in MB.
double PeakRssMb();
// Linearly interpolated quantile, q in [0, 1] (0 when empty).
double Quantile(std::vector<double> xs, double q);
double Median(std::vector<double> xs);
// A latency phase is cut into sub-windows and each run reports the lower
// quartile of the sub-windows' percentiles. Co-tenants on a shared VM stall
// it for milliseconds at a time in some sub-windows; the quiet quartile
// keeps those out while a change that slows every sub-window still shows.
double QuietLatency(const std::vector<double>& sub);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVE_H_
