// Self-tests of the benchmark's own code: the oracle, the open-loop
// schedule and input reproducibility. Exit code 0 when all pass.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "oracle.h"
#include "storage/table.h"
#include "workload.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "FAIL: %s\n", what);
  ++failures;
}

// A seed reproduces byte-identical inputs; another seed does not.
void TestSeedReproducesInputs() {
  Inputs a = Inputs::Generate(7, 4096);
  Inputs b = Inputs::Generate(7, 4096);
  Inputs c = Inputs::Generate(8, 4096);
  Expect(a.Fingerprint() == b.Fingerprint(), "same seed, same bytes");
  Expect(a.Fingerprint() != c.Fingerprint(), "other seed, other bytes");
  Expect(a.TotalsAt(100000).match_x == b.TotalsAt(100000).match_x,
         "same seed, same reference totals");
}

// Every event carries its own due time, never a later send time, and no
// event is handed out before it is due or twice.
void TestOpenLoopStampsDueTimes() {
  const int64_t t0 = 1000000000;
  const double rate = 300000;  // 3.33 us apart: several events per wake
  OpenLoop sched(t0, rate);
  std::vector<int64_t> g;
  int64_t sent = 0;
  bool ok = true;
  for (int64_t now = t0; now < t0 + 10 * kSendPeriodNs;
       now += kSendPeriodNs + 777) {
    g.clear();
    sched.TakeDue(now, 2000, &g);
    for (int64_t due : g) {
      ok = ok && due == sched.Due(sent) && due <= now;
      ++sent;
    }
    ok = ok && (sched.next() >= 2000 || sched.Due(sched.next()) > now);
  }
  Expect(ok, "open loop stamps each event with its own due time");
  Expect(sched.Due(3) - sched.Due(2) >= 3333 && sched.Due(3) - sched.Due(2) <= 3334,
         "due times are 1/rate apart");
  g.clear();
  sched.TakeDue(t0 + 1000000000, 2000, &g);
  Expect(sched.next() == 2000, "the event limit is respected");
}

std::shared_ptr<datacell::Table> SelBatch(const Inputs& in, int64_t n,
                                          int64_t corrupt_at) {
  datacell::Schema schema({datacell::Field{"g", datacell::DataType::kInt64},
                           datacell::Field{"v", datacell::DataType::kInt64}});
  auto t = std::make_shared<datacell::Table>("out", schema);
  for (int64_t i = 0; i < n; ++i) {
    if (in.v(i) >= kSelCut) continue;
    int64_t v = i == corrupt_at ? in.v(i) + 1 : in.v(i);
    (void)t->AppendRow({datacell::Value::Int64(0), datacell::Value::Int64(v)});
  }
  return t;
}

// The oracle accepts the right result and rejects a corrupted one.
void TestOracleRejectsCorruption() {
  Inputs in = Inputs::Generate(3, 4096);
  const int64_t n = 3000;
  std::vector<std::string> errors;

  QuerySink good(QueryKind::kSel);
  good.OnBatch(*SelBatch(in, n, -1), 0);
  Expect(CheckTotals(in, n, good, &errors), "oracle accepts a correct result");
  Expect(in.CoveredPrefix(QueryKind::kSel, good.units(), n) == n,
         "a complete result accounts for every tuple");

  int64_t first_pass = 0;
  while (in.v(first_pass) >= kSelCut) ++first_pass;
  QuerySink bad(QueryKind::kSel);
  bad.OnBatch(*SelBatch(in, n, first_pass), 0);
  errors.clear();
  Expect(!CheckTotals(in, n, bad, &errors) && !errors.empty(),
         "oracle rejects a corrupted value");

  QuerySink missing(QueryKind::kSel);
  missing.OnBatch(*SelBatch(in, n - 500, -1), 0);
  errors.clear();
  Expect(!CheckTotals(in, n, missing, &errors), "oracle rejects missing rows");
  Expect(in.CoveredPrefix(QueryKind::kSel, missing.units(), n) < n,
         "missing rows leave tuples unaccounted");

  Totals want = in.TotalsAt(n);
  Delivered win;
  win.rows = want.windows;
  win.bad_windows = 1;
  errors.clear();
  Expect(!CheckDelivered(QueryKind::kWin, want, win, &errors),
         "oracle rejects a window of the wrong size");
  Delivered grp;
  grp.sum_n = want.all;
  grp.sum_v = want.all_v - 1;
  errors.clear();
  Expect(!CheckDelivered(QueryKind::kGrp, want, grp, &errors),
         "oracle rejects a group-by that loses value mass");
}

void TestHistogramPercentiles() {
  LatencyHistogram h;
  for (int64_t v = 1; v <= 100000; ++v) h.Record(v);
  double p50 = h.PercentileNs(0.5);
  double p99 = h.PercentileNs(0.99);
  Expect(p50 > 50000 * 0.98 && p50 < 50000 * 1.02, "histogram p50");
  Expect(p99 > 99000 * 0.98 && p99 < 99000 * 1.02, "histogram p99");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestSeedReproducesInputs();
  perfbench::TestOpenLoopStampsDueTimes();
  perfbench::TestOracleRejectsCorruption();
  perfbench::TestHistogramPercentiles();
  if (perfbench::failures > 0) return 1;
  std::fprintf(stderr, "perfbench self-tests passed\n");
  return 0;
}
