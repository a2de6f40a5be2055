#include "oracle.h"

#include <bit>
#include <cinttypes>
#include <cstdio>

#include "trace.h"

namespace perfbench {

using datacell::DataType;
using datacell::Table;

// --- LatencyHistogram -------------------------------------------------------

size_t LatencyHistogram::BucketOf(int64_t ns) {
  if (ns < (int64_t{1} << kSubBits)) return ns < 0 ? 0 : static_cast<size_t>(ns);
  uint64_t u = static_cast<uint64_t>(ns);
  int e = 63 - std::countl_zero(u);
  size_t sub = static_cast<size_t>(u >> (e - kSubBits)) &
               ((size_t{1} << kSubBits) - 1);
  return (static_cast<size_t>(e - kSubBits + 1) << kSubBits) + sub;
}

int64_t LatencyHistogram::LowerBound(size_t bucket) {
  if (bucket < (size_t{1} << kSubBits)) return static_cast<int64_t>(bucket);
  int e = static_cast<int>(bucket >> kSubBits) + kSubBits - 1;
  uint64_t sub = bucket & ((size_t{1} << kSubBits) - 1);
  return static_cast<int64_t>(((uint64_t{1} << kSubBits) + sub)
                              << (e - kSubBits));
}

void LatencyHistogram::Record(int64_t ns) {
  ++buckets_[BucketOf(ns)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

void LatencyHistogram::Clear() {
  buckets_.fill(0);
  count_ = 0;
}

double LatencyHistogram::PercentileNs(double q) const {
  if (count_ == 0) return 0;
  double rank = q * static_cast<double>(count_ - 1);
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    if (rank < static_cast<double>(seen + buckets_[b])) {
      double lo = static_cast<double>(LowerBound(b));
      double hi = static_cast<double>(LowerBound(b + 1));
      double frac = (rank - static_cast<double>(seen) + 0.5) /
                    static_cast<double>(buckets_[b]);
      return lo + (hi - lo) * frac;
    }
    seen += buckets_[b];
  }
  return static_cast<double>(LowerBound(kBuckets - 1));
}

// --- QuerySink ---------------------------------------------------------------

QuerySink::QuerySink(QueryKind kind)
    : kind_(kind), span_name_(SpanId(std::string("sink.") + name())) {}

namespace {

// Output columns by position (the result ts follows them).
struct Layout {
  int n = -1, v = -1, x = -1, g = -1;
};

Layout LayoutOf(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSel:  // g, v
      return {-1, 1, -1, 0};
    case QueryKind::kAgg:  // n, sv, g
      return {0, 1, -1, 2};
    case QueryKind::kGrp:  // k, n, sv, g
      return {1, 2, -1, 3};
    case QueryKind::kJoin:  // k, x, g
      return {-1, -1, 1, 2};
    case QueryKind::kWin:  // n, g
      return {0, -1, -1, 1};
  }
  return {};
}

// A numeric output column. sum() and max() come out as double; every value
// the benchmark feeds stays below 2^53, so they convert back exactly.
const datacell::Bat* NumericColumn(const Table& t, int col) {
  if (col < 0 || static_cast<size_t>(col) >= t.num_columns()) return nullptr;
  const datacell::Bat& b = *t.column(static_cast<size_t>(col));
  return b.type() == DataType::kInt64 || b.type() == DataType::kDouble ? &b
                                                                       : nullptr;
}

int64_t At(const datacell::Bat& b, size_t i) {
  return b.type() == DataType::kInt64 ? b.Int64At(i)
                                      : static_cast<int64_t>(b.DoubleAt(i));
}

}  // namespace

void QuerySink::OnBatch(const Table& batch, datacell::Timestamp) {
  ScopedSpan span(span_name_);
  const int64_t now = NowNs();
  const Layout lay = LayoutOf(kind_);
  const datacell::Bat* g = NumericColumn(batch, lay.g);
  const datacell::Bat* n = NumericColumn(batch, lay.n);
  const datacell::Bat* v = NumericColumn(batch, lay.v);
  const datacell::Bat* x = NumericColumn(batch, lay.x);
  const size_t rows = batch.num_rows();

  std::lock_guard<std::mutex> lock(mu_);
  d_.rows += static_cast<int64_t>(rows);
  bool shape_ok = g != nullptr && (lay.n < 0 || n != nullptr) &&
                  (lay.v < 0 || v != nullptr) && (lay.x < 0 || x != nullptr);
  if (!shape_ok) {
    d_.bad_rows += static_cast<int64_t>(rows);
    return;
  }
  for (size_t i = 0; i < rows; ++i) {
    // A scalar aggregate over a fire whose tuples all failed the filter:
    // count 0, null sum and max. Valid, and nothing to time.
    if (kind_ == QueryKind::kAgg && !n->IsNull(i) && At(*n, i) == 0) {
      continue;
    }
    bool null = g->IsNull(i) || (n != nullptr && n->IsNull(i)) ||
                (v != nullptr && v->IsNull(i)) ||
                (x != nullptr && x->IsNull(i));
    if (null) {
      ++d_.bad_rows;
      continue;
    }
    latency_.Record(now - At(*g, i));
    if (n != nullptr) d_.sum_n += At(*n, i);
    if (v != nullptr) d_.sum_v += At(*v, i);
    if (x != nullptr) d_.sum_x += At(*x, i);
    if (kind_ == QueryKind::kWin && At(*n, i) != kWinSize) {
      ++d_.bad_windows;
    }
  }
  int64_t units = (kind_ == QueryKind::kAgg || kind_ == QueryKind::kGrp)
                      ? d_.sum_n
                      : d_.rows;
  units_.store(units, std::memory_order_release);
}

Delivered QuerySink::delivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return d_;
}

void QuerySink::TakeLatency(LatencyHistogram* into) {
  std::lock_guard<std::mutex> lock(mu_);
  into->Merge(latency_);
  latency_.Clear();
}

// --- checks ------------------------------------------------------------------

namespace {

void Expect(const char* query, const char* what, int64_t want, int64_t got,
            bool* ok, std::vector<std::string>* errors) {
  if (want == got) return;
  *ok = false;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: %s = %" PRId64 ", expected %" PRId64,
                query, what, got, want);
  errors->push_back(buf);
}

}  // namespace

bool CheckDelivered(QueryKind kind, const Totals& want, const Delivered& got,
                    std::vector<std::string>* errors) {
  const char* q = SpecFor(kind).name;
  bool ok = true;
  Expect(q, "malformed rows", 0, got.bad_rows, &ok, errors);
  switch (kind) {
    case QueryKind::kSel:
      Expect(q, "rows", want.pass, got.rows, &ok, errors);
      Expect(q, "sum(v)", want.pass_v, got.sum_v, &ok, errors);
      break;
    case QueryKind::kAgg:
      Expect(q, "sum of count(*)", want.pass, got.sum_n, &ok, errors);
      Expect(q, "sum of sum(v)", want.pass_v, got.sum_v, &ok, errors);
      break;
    case QueryKind::kGrp:
      Expect(q, "sum of count(*)", want.all, got.sum_n, &ok, errors);
      Expect(q, "sum of sum(v)", want.all_v, got.sum_v, &ok, errors);
      break;
    case QueryKind::kJoin:
      Expect(q, "matched rows", want.match, got.rows, &ok, errors);
      Expect(q, "sum(x)", want.match_x, got.sum_x, &ok, errors);
      break;
    case QueryKind::kWin:
      Expect(q, "windows", want.windows, got.rows, &ok, errors);
      Expect(q, "windows with count != size", 0, got.bad_windows, &ok,
             errors);
      break;
  }
  return ok;
}

bool CheckTotals(const Inputs& in, int64_t sent, const QuerySink& sink,
                 std::vector<std::string>* errors) {
  return CheckDelivered(sink.kind(), in.TotalsAt(sent), sink.delivered(),
                        errors);
}

}  // namespace perfbench
