// The benchmark's result sink: it counts what each query delivers, checks
// it against the reference totals computed from the generated inputs, and
// records per-row latency (delivery instant minus the due time carried in g).
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "adapters/sink.h"
#include "workload.h"

namespace perfbench {

// Log-linear histogram of non-negative ns values: 64 linear sub-buckets per
// power of two, so a percentile is exact to about 1.6%.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr size_t kBuckets = (64 - kSubBits + 1) << kSubBits;

  void Record(int64_t ns);
  void Merge(const LatencyHistogram& other);
  void Clear();
  uint64_t count() const { return count_; }
  // q in [0, 1]; interpolated inside the covering bucket. 0 when empty.
  double PercentileNs(double q) const;

 private:
  static size_t BucketOf(int64_t ns);
  static int64_t LowerBound(size_t bucket);

  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
};

// What one query has delivered so far.
struct Delivered {
  int64_t rows = 0;
  int64_t sum_n = 0;        // agg/grp: sum of count(*)
  int64_t sum_v = 0;        // sel: sum of v; agg/grp: sum of sum(v)
  int64_t sum_x = 0;        // join: sum of dim.x
  int64_t bad_windows = 0;  // win: windows whose count is not kWinSize
  int64_t bad_rows = 0;     // rows with a null or out-of-shape value
};

class QuerySink final : public datacell::ResultSink {
 public:
  explicit QuerySink(QueryKind kind);

  void OnBatch(const datacell::Table& batch, datacell::Timestamp) override;

  QueryKind kind() const { return kind_; }
  const char* name() const { return SpecFor(kind_).name; }
  Delivered delivered() const;
  // Rows (sel/join/win) or sum of n (agg/grp): what CoveredPrefix takes.
  int64_t units() const { return units_.load(std::memory_order_acquire); }
  // Moves the latency samples recorded since the last call into `into`.
  void TakeLatency(LatencyHistogram* into);

 private:
  QueryKind kind_;
  uint32_t span_name_;
  mutable std::mutex mu_;
  Delivered d_;              // guarded by mu_
  LatencyHistogram latency_;  // guarded by mu_
  std::atomic<int64_t> units_{0};
};

// Compares a sink's totals with the reference over `sent` tuples; appends a
// line per mismatch to `errors`. Returns true when everything matches.
bool CheckTotals(const Inputs& in, int64_t sent, const QuerySink& sink,
                 std::vector<std::string>* errors);
// Same check on an already-read Delivered (the self-test corrupts one).
bool CheckDelivered(QueryKind kind, const Totals& want, const Delivered& got,
                    std::vector<std::string>* errors);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
