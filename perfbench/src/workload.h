// Seeded inputs, the open-loop schedule and the reference totals of the
// end-to-end benchmark. Everything the engine sees is produced here from the
// seed; nothing here touches the engine.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Stream shape shared by all workloads: (k, v, g).
//   k: Zipf(kZipfS) over kKeySpace keys; the rank -> key map is a seeded
//      permutation, so every seed has the same skew on different keys.
//   v: uniform in [0, kValueRange); `v < kSelCut` passes about half.
//   g: the event's due time on the steady clock in ns, stamped at send time.
inline constexpr int64_t kKeySpace = 100000;
inline constexpr double kZipfS = 1.0;
inline constexpr int64_t kValueRange = 1000000;
inline constexpr int64_t kSelCut = 500000;
// `win`: count window of kWinSize tuples sliding by kWinSlide.
inline constexpr int64_t kWinSize = 1024;
inline constexpr int64_t kWinSlide = 128;

// splitmix64: fixed, portable generator, so a seed yields the same bytes on
// every platform (std:: distributions are implementation-defined).
uint64_t SplitMix64(uint64_t* state);

enum class QueryKind { kSel, kAgg, kGrp, kJoin, kWin };

struct QuerySpec {
  const char* name;
  QueryKind kind;
  const char* sql;
};

// The continuous queries; each carries the newest contributing event's due
// time out as `g` (or `max(g)`), which the sink turns into latency.
const QuerySpec& SpecFor(QueryKind kind);

// Totals the correct output of each query has over the first n tuples of the
// (cycled) stream.
struct Totals {
  int64_t all = 0;        // tuples
  int64_t all_v = 0;      // sum of v
  int64_t pass = 0;       // tuples with v < kSelCut
  int64_t pass_v = 0;     // sum of v over those
  int64_t match = 0;      // tuples whose k is in dim
  int64_t match_x = 0;    // sum of dim.x over those
  int64_t windows = 0;    // count windows completed
};

// A pool of tuples the stream cycles through, the static `dim` table and the
// prefix sums the oracle needs. Generated once per run from the seed.
class Inputs {
 public:
  static Inputs Generate(uint64_t seed, size_t pool_size);

  size_t size() const { return k_.size(); }
  int64_t k(int64_t i) const { return k_[Wrap(i)]; }
  int64_t v(int64_t i) const { return v_[Wrap(i)]; }
  // "k,v," for stream position i; the sender appends g.
  const std::string& csv_prefix(int64_t i) const {
    return csv_prefix_[Wrap(i)];
  }
  const std::vector<int64_t>& dim_k() const { return dim_k_; }
  const std::vector<int64_t>& dim_x() const { return dim_x_; }

  Totals TotalsAt(int64_t n) const;
  // Largest prefix t <= sent whose output for query `kind` is complete once
  // the sink has seen `units` of it (rows for sel/join/win, sum of n for
  // agg/grp).
  int64_t CoveredPrefix(QueryKind kind, int64_t units, int64_t sent) const;

  // Byte image of everything generated, for the reproducibility self-test.
  std::string Fingerprint() const;

 private:
  size_t Wrap(int64_t i) const {
    return static_cast<size_t>(i % static_cast<int64_t>(k_.size()));
  }
  static int64_t Cum(const std::vector<int64_t>& cum, int64_t n);
  static int64_t Invert(const std::vector<int64_t>& cum, int64_t units);

  std::vector<int64_t> k_, v_;
  std::vector<std::string> csv_prefix_;
  std::vector<int64_t> dim_k_, dim_x_;
  // Prefix sums over the pool, size()+1 entries each.
  std::vector<int64_t> cum_v_, cum_pass_, cum_pass_v_, cum_match_,
      cum_match_x_;
};

// Open-loop schedule: event i of a phase is due at t0 + i/rate. The sender
// wakes every kSendPeriodNs and sends every event due by then, each stamped
// with its own due time.
inline constexpr int64_t kSendPeriodNs = 100000;

class OpenLoop {
 public:
  OpenLoop(int64_t t0_ns, double rate) : t0_(t0_ns), rate_(rate) {}
  int64_t Due(int64_t i) const {
    return t0_ + static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate_);
  }
  // Appends the due times of every event before index `limit` that is due
  // by `now_ns` and has not been handed out yet; returns how many.
  size_t TakeDue(int64_t now_ns, int64_t limit, std::vector<int64_t>* g);
  int64_t next() const { return next_; }

 private:
  int64_t t0_;
  double rate_;
  int64_t next_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
