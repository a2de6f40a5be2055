#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

namespace perfbench {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

const QuerySpec kSpecs[] = {
    {"sel", QueryKind::kSel,
     "select w.g, w.v from [select * from s] as w where w.v < 500000"},
    {"agg", QueryKind::kAgg,
     "select count(*) as n, sum(w.v) as sv, max(w.g) as g "
     "from [select * from s] as w where w.v < 500000"},
    {"grp", QueryKind::kGrp,
     "select w.k, count(*) as n, sum(w.v) as sv, max(w.g) as g "
     "from [select * from s] as w group by w.k"},
    {"join", QueryKind::kJoin,
     "select w.k, d.x, w.g from [select * from s] as w "
     "join dim as d on w.k = d.k"},
    {"win", QueryKind::kWin,
     "select count(*) as n, max(w.g) as g from [select * from s] as w "
     "window size 1024 slide 128"},
};

double Uniform01(uint64_t* state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

const QuerySpec& SpecFor(QueryKind kind) {
  return kSpecs[static_cast<size_t>(kind)];
}

Inputs Inputs::Generate(uint64_t seed, size_t pool_size) {
  uint64_t state = seed * 0x2545f4914f6cdd1dULL + 1;

  // Seeded rank -> key permutation (Fisher-Yates).
  std::vector<int64_t> key_of_rank(kKeySpace);
  std::iota(key_of_rank.begin(), key_of_rank.end(), 0);
  for (size_t i = key_of_rank.size() - 1; i > 0; --i) {
    size_t j = static_cast<size_t>(SplitMix64(&state) % (i + 1));
    std::swap(key_of_rank[i], key_of_rank[j]);
  }
  // dim covers the keys of even Zipf rank: half the keys and, whatever the
  // seed, the same share of the traffic, so join work does not vary by seed.
  std::vector<int64_t> x_of_key(kKeySpace, -1);
  Inputs in;
  for (size_t r = 0; r < key_of_rank.size(); r += 2) {
    int64_t key = key_of_rank[r];
    int64_t x = static_cast<int64_t>(SplitMix64(&state) % 1000) + 1;
    x_of_key[static_cast<size_t>(key)] = x;
    in.dim_k_.push_back(key);
    in.dim_x_.push_back(x);
  }

  std::vector<double> cdf(kKeySpace);
  double acc = 0;
  for (size_t r = 0; r < cdf.size(); ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    cdf[r] = acc;
  }
  for (double& c : cdf) c /= acc;

  in.k_.resize(pool_size);
  in.v_.resize(pool_size);
  in.csv_prefix_.resize(pool_size);
  for (size_t i = 0; i < pool_size; ++i) {
    double u = Uniform01(&state);
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    rank = std::min(rank, cdf.size() - 1);
    in.k_[i] = key_of_rank[rank];
    in.v_[i] = static_cast<int64_t>(SplitMix64(&state) %
                                    static_cast<uint64_t>(kValueRange));
    in.csv_prefix_[i] =
        std::to_string(in.k_[i]) + "," + std::to_string(in.v_[i]) + ",";
  }

  auto prefix = [&](auto value_of) {
    std::vector<int64_t> cum(pool_size + 1, 0);
    for (size_t i = 0; i < pool_size; ++i) cum[i + 1] = cum[i] + value_of(i);
    return cum;
  };
  in.cum_v_ = prefix([&](size_t i) { return in.v_[i]; });
  in.cum_pass_ = prefix([&](size_t i) -> int64_t { return in.v_[i] < kSelCut; });
  in.cum_pass_v_ = prefix(
      [&](size_t i) { return in.v_[i] < kSelCut ? in.v_[i] : int64_t{0}; });
  in.cum_match_ = prefix([&](size_t i) -> int64_t {
    return x_of_key[static_cast<size_t>(in.k_[i])] >= 0;
  });
  in.cum_match_x_ = prefix([&](size_t i) {
    return std::max<int64_t>(x_of_key[static_cast<size_t>(in.k_[i])], 0);
  });
  return in;
}

int64_t Inputs::Cum(const std::vector<int64_t>& cum, int64_t n) {
  int64_t pool = static_cast<int64_t>(cum.size()) - 1;
  return (n / pool) * cum.back() + cum[static_cast<size_t>(n % pool)];
}

int64_t Inputs::Invert(const std::vector<int64_t>& cum, int64_t units) {
  // Largest n with Cum(cum, n) <= units.
  int64_t pool = static_cast<int64_t>(cum.size()) - 1;
  int64_t full = units / cum.back();
  int64_t rem = units % cum.back();
  auto it = std::upper_bound(cum.begin(), cum.end(), rem);
  return full * pool + static_cast<int64_t>(it - cum.begin()) - 1;
}

Totals Inputs::TotalsAt(int64_t n) const {
  Totals t;
  t.all = n;
  t.all_v = Cum(cum_v_, n);
  t.pass = Cum(cum_pass_, n);
  t.pass_v = Cum(cum_pass_v_, n);
  t.match = Cum(cum_match_, n);
  t.match_x = Cum(cum_match_x_, n);
  t.windows = n < kWinSize ? 0 : (n - kWinSize) / kWinSlide + 1;
  return t;
}

int64_t Inputs::CoveredPrefix(QueryKind kind, int64_t units,
                              int64_t sent) const {
  int64_t covered = 0;
  switch (kind) {
    case QueryKind::kSel:
    case QueryKind::kAgg:
      covered = Invert(cum_pass_, units);
      break;
    case QueryKind::kGrp:
      covered = units;
      break;
    case QueryKind::kJoin:
      covered = Invert(cum_match_, units);
      break;
    case QueryKind::kWin:
      // `units` windows out: everything before the next window's last tuple.
      covered = kWinSize + units * kWinSlide - 1;
      break;
  }
  return std::min(covered, sent);
}

std::string Inputs::Fingerprint() const {
  std::string out;
  auto put = [&out](const std::vector<int64_t>& xs) {
    size_t at = out.size();
    out.resize(at + xs.size() * sizeof(int64_t));
    if (!xs.empty()) std::memcpy(&out[at], xs.data(), xs.size() * 8);
  };
  put(k_);
  put(v_);
  put(dim_k_);
  put(dim_x_);
  for (const std::string& p : csv_prefix_) out += p;
  return out;
}

size_t OpenLoop::TakeDue(int64_t now_ns, int64_t limit,
                         std::vector<int64_t>* g) {
  size_t n = 0;
  while (next_ < limit && Due(next_) <= now_ns) {
    g->push_back(Due(next_));
    ++next_;
    ++n;
  }
  return n;
}

}  // namespace perfbench
