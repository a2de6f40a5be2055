#include "drive.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <thread>

#include "core/engine.h"
#include "core/shard.h"

namespace perfbench {

using datacell::BasketPtr;
using datacell::ColumnBatch;
using datacell::DataType;
using datacell::Engine;
using datacell::Field;
using datacell::MetricsSnapshotData;
using datacell::QueryId;
using datacell::Schema;
using datacell::ShardedEngine;
using datacell::Status;

// --- workloads ---------------------------------------------------------------

namespace {

const std::vector<QueryKind> kMixedQueries = {
    QueryKind::kAgg, QueryKind::kGrp, QueryKind::kJoin, QueryKind::kWin};

// Rates are absolute and fixed; see perfbench/README.md for how they were
// chosen. The ladder steps by 6% from 1 M to 6.8 M tuples/s; each workload
// starts its search a little below the capacity measured on a 4-core box.
const std::vector<double> kLadder = {
    1000000, 1060000, 1120000, 1190000, 1260000, 1340000, 1420000, 1500000,
    1590000, 1690000, 1790000, 1900000, 2010000, 2130000, 2260000, 2400000,
    2540000, 2690000, 2850000, 3030000, 3210000, 3400000, 3600000, 3820000,
    4050000, 4290000, 4550000, 4820000, 5110000, 5420000, 5740000, 6090000,
    6450000, 6840000};

const WorkloadConfig kWorkloads[] = {
    {"csv_filter", {QueryKind::kSel}, 200000, 800000, 5000, kLadder, 17},
    {"mixed_queries", kMixedQueries, 200000, 800000, 5000, kLadder, 25},
    {"sharded_mixed", kMixedQueries, 200000, 800000, 5000, kLadder, 12},
};

bool HasLabel(const datacell::MetricLabels& labels, const std::string& key,
              const std::string& value) {
  for (const auto& [k, v] : labels) {
    if (k == key && v == value) return true;
  }
  return false;
}

// Sum of counter `name` over `snaps`, restricted to series carrying label
// key=value when key is non-empty.
int64_t SumCounter(const std::vector<MetricsSnapshotData>& snaps,
                   const std::string& name, const std::string& key = "",
                   const std::string& value = "") {
  int64_t total = 0;
  for (const MetricsSnapshotData& s : snaps) {
    for (const auto& c : s.counters) {
      if (c.name == name && (key.empty() || HasLabel(c.labels, key, value))) {
        total += c.value;
      }
    }
  }
  return total;
}

int64_t MaxGauge(const std::vector<MetricsSnapshotData>& snaps,
                 const std::string& name, const std::string& key,
                 const std::string& value) {
  int64_t best = 0;
  for (const MetricsSnapshotData& s : snaps) {
    for (const auto& g : s.gauges) {
      if (g.name == name && HasLabel(g.labels, key, value)) {
        best = std::max(best, g.value);
      }
    }
  }
  return best;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Layer metrics every engine exports: transition fires and tuples, the
// scheduler's sweep and wake counters, the buffer pool, basket occupancy.
void ScrapeEngineCounters(const std::vector<MetricsSnapshotData>& snaps,
                          const std::vector<QueryKind>& queries, Metrics* m) {
  const std::string fires = "datacell_transition_fires_total";
  const std::string tuples = "datacell_transition_tuples_total";
  int64_t rf = SumCounter(snaps, fires, "kind", "receptor");
  (*m)["core.receptor.fires"] = static_cast<double>(rf);
  (*m)["core.receptor.tuples_per_fire"] =
      Ratio(static_cast<double>(SumCounter(snaps, tuples, "kind", "receptor")),
            static_cast<double>(rf));
  (*m)["core.receptor.malformed"] = static_cast<double>(
      SumCounter(snaps, "datacell_receptor_malformed_total"));
  for (QueryKind q : queries) {
    const std::string name = SpecFor(q).name;
    for (const char* layer : {"factory", "emitter"}) {
      // On shards a merged query runs as "<q>__partial".
      int64_t f = 0, n = 0;
      for (const char* suffix : {"", "__partial"}) {
        const std::string t = std::string(layer) + "_" + name + suffix;
        f += SumCounter(snaps, fires, "transition", t);
        n += SumCounter(snaps, tuples, "transition", t);
      }
      const std::string prefix = std::string("core.") + layer + "." + name;
      (*m)[prefix + ".fires"] = static_cast<double>(f);
      (*m)[prefix + (layer[0] == 'f' ? ".tuples_per_fire" : ".rows_per_fire")] =
          Ratio(static_cast<double>(n), static_cast<double>(f));
    }
  }
  int64_t sweeps = SumCounter(snaps, "datacell_scheduler_sweeps_total");
  int64_t firings = SumCounter(snaps, "datacell_scheduler_firings_total");
  int64_t notified = SumCounter(snaps, "datacell_scheduler_wakes_notified_total");
  int64_t timeouts = SumCounter(snaps, "datacell_scheduler_wakes_timeout_total");
  (*m)["core.scheduler.sweeps"] = static_cast<double>(sweeps);
  (*m)["core.scheduler.firings"] = static_cast<double>(firings);
  (*m)["core.scheduler.firings_per_sweep"] =
      Ratio(static_cast<double>(firings), static_cast<double>(sweeps));
  (*m)["core.scheduler.wakes_timeout"] = static_cast<double>(timeouts);
  (*m)["core.scheduler.wakes_total"] = static_cast<double>(notified + timeouts);
  (*m)["core.scheduler.wake_timeout_ratio"] = Ratio(
      static_cast<double>(timeouts), static_cast<double>(notified + timeouts));
  (*m)["core.scheduler.idle_waits"] = static_cast<double>(
      SumCounter(snaps, "datacell_scheduler_idle_waits_total"));
  int64_t hits = SumCounter(snaps, "datacell_pool_hits_total");
  int64_t misses = SumCounter(snaps, "datacell_pool_misses_total");
  (*m)["storage.pool.hits"] = static_cast<double>(hits);
  (*m)["storage.pool.misses"] = static_cast<double>(misses);
  (*m)["storage.pool.hit_ratio"] =
      Ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
  (*m)["core.basket.high_water"] = static_cast<double>(
      MaxGauge(snaps, "datacell_basket_high_water", "basket", "s"));
  (*m)["core.basket.shed"] =
      static_cast<double>(SumCounter(snaps, "datacell_basket_shed_total"));
  (*m)["algebra.specialized_queries"] = static_cast<double>(
      SumCounter(snaps, "datacell_specialized_queries"));
}

// "2. Aggregate(groups=[k], ...)" -> "2_aggregate".
std::string StepKey(const std::string& label) {
  std::string out;
  bool word_started = false;
  for (char c : label) {
    if (c == '(') break;
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    bool alnum = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
    if (alnum) {
      out += c;
      word_started = true;
    } else if (word_started && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

// Per-step self time per input tuple from the profiler's step counters.
// Specialized pipelines report exclusive stage times; the interpreter's
// steps are nested (pre-order over a linear chain), so a step's self time
// is its time minus the next step's.
void ScrapeProfileSteps(const std::vector<MetricsSnapshotData>& snaps,
                        const std::map<std::string, bool>& specialized,
                        const std::map<std::string, int64_t>& tuples,
                        Metrics* m) {
  std::map<std::string, std::map<std::string, int64_t>> steps;
  for (const MetricsSnapshotData& s : snaps) {
    for (const auto& c : s.counters) {
      if (c.name != "datacell_profile_step_time_ns_total") continue;
      std::string query, step;
      for (const auto& [k, v] : c.labels) {
        if (k == "query") query = v.substr(0, v.find("__partial"));
        if (k == "step") step = v;
      }
      steps[query][step] += c.value;
    }
  }
  for (const auto& [query, by_step] : steps) {
    auto sp = specialized.find(query);
    auto tu = tuples.find(query);
    if (sp == specialized.end() || tu == tuples.end()) continue;
    // Labels start with the 1-based execution index; order by it.
    std::vector<std::pair<int, std::pair<std::string, int64_t>>> ordered;
    for (const auto& [label, ns] : by_step) {
      ordered.push_back({std::atoi(label.c_str()), {label, ns}});
    }
    std::sort(ordered.begin(), ordered.end());
    for (size_t i = 0; i < ordered.size(); ++i) {
      int64_t self = ordered[i].second.second;
      if (!sp->second && i + 1 < ordered.size()) {
        self -= ordered[i + 1].second.second;
      }
      (*m)["algebra." + query + "." + StepKey(ordered[i].second.first) +
           ".ns_per_row"] =
          Ratio(static_cast<double>(self), static_cast<double>(tu->second));
    }
  }
}

std::string DimInsert(const Inputs& in, size_t from, size_t to) {
  std::string sql = "insert into dim values ";
  for (size_t i = from; i < to; ++i) {
    sql += i > from ? ", (" : "(";
    sql += std::to_string(in.dim_k()[i]);
    sql += ", ";
    sql += std::to_string(in.dim_x()[i]);
    sql += ")";
  }
  return sql;
}

// DDL, static load, query submission and subscription, on either facade.
// Returns the frontend query ids in `queries` order.
template <typename E>
datacell::Result<std::vector<QueryId>> SetUpQueries(
    E& e, const WorkloadConfig& w, const Inputs& in, bool partitioned,
    std::vector<std::unique_ptr<QuerySink>>* sinks, double* static_load_us,
    double* submit_us_per_query) {
  bool needs_dim = std::find(w.queries.begin(), w.queries.end(),
                             QueryKind::kJoin) != w.queries.end();
  if (needs_dim) {
    DC_RETURN_NOT_OK(e.ExecuteSql("create table dim (k int, x int)").status());
    int64_t t0 = NowNs();
    constexpr size_t kRowsPerInsert = 1000;
    for (size_t i = 0; i < in.dim_k().size(); i += kRowsPerInsert) {
      size_t to = std::min(in.dim_k().size(), i + kRowsPerInsert);
      DC_RETURN_NOT_OK(e.ExecuteSql(DimInsert(in, i, to)).status());
    }
    *static_load_us = static_cast<double>(NowNs() - t0) / 1e3;
  }
  DC_RETURN_NOT_OK(e.ExecuteSql(partitioned ? "create basket s (k int, v int, "
                                              "g int) partition by k"
                                            : "create basket s (k int, v int, "
                                              "g int)")
                       .status());
  std::vector<QueryId> ids;
  int64_t submit_ns = 0;
  for (QueryKind q : w.queries) {
    const QuerySpec& spec = SpecFor(q);
    int64_t t0 = NowNs();
    DC_ASSIGN_OR_RETURN(QueryId id, e.SubmitContinuousQuery(spec.name, spec.sql));
    submit_ns += NowNs() - t0;
    sinks->push_back(std::make_unique<QuerySink>(q));
    std::shared_ptr<QuerySink> alias(sinks->back().get(), [](QuerySink*) {});
    DC_RETURN_NOT_OK(e.Subscribe(id, alias));
    ids.push_back(id);
  }
  *submit_us_per_query =
      static_cast<double>(submit_ns) / 1e3 / static_cast<double>(ids.size());
  return ids;
}

Schema StreamSchema() {
  return Schema({Field{"k", DataType::kInt64}, Field{"v", DataType::kInt64},
                 Field{"g", DataType::kInt64}});
}

// --- single-engine targets ---------------------------------------------------

class EngineTarget : public Target {
 public:
  explicit EngineTarget(const Inputs& in) : Target(in) {}

  Status Init(const WorkloadConfig& w, bool csv) {
    int64_t t0 = NowNs();
    engine_ = std::make_unique<Engine>();
    DC_ASSIGN_OR_RETURN(std::vector<QueryId> ids,
                        SetUpQueries(*engine_, w, in_, /*partitioned=*/!csv,
                                     &sinks_, &static_load_us_,
                                     &submit_us_per_query_));
    if (csv) {
      DC_ASSIGN_OR_RETURN(datacell::Receptor * r,
                          engine_->AttachReceptor("s", &channel_));
      stages_.push_back(Stage{SpanId("receptor"), "", r});
    }
    setup_s_ = static_cast<double>(NowNs() - t0) / 1e9;
    DC_ASSIGN_OR_RETURN(basket_, engine_->GetBasket("s"));
    for (size_t i = 0; i < ids.size(); ++i) {
      DC_ASSIGN_OR_RETURN(const Engine::QueryInfo* qi,
                          engine_->GetQuery(ids[i]));
      const std::string name = SpecFor(w.queries[i]).name;
      specialized_[name] = qi->factory->is_specialized();
      stages_.push_back(Stage{SpanId("factory." + name), name, qi->factory.get()});
      stages_.push_back(Stage{SpanId("emitter." + name), name, qi->emitter.get()});
    }
    queries_ = w.queries;
    csv_ = csv;
    batch_.Reset(StreamSchema());
    return Status::OK();
  }

  void Prepare(int64_t first, const std::vector<int64_t>& g) override {
    if (csv_) {
      lines_.clear();
      lines_.reserve(g.size());
      char buf[24];
      for (size_t i = 0; i < g.size(); ++i) {
        std::string line = in_.csv_prefix(first + static_cast<int64_t>(i));
        auto r = std::to_chars(buf, buf + sizeof(buf), g[i]);
        line.append(buf, r.ptr);
        lines_.push_back(std::move(line));
      }
      return;
    }
    AppendColumns(in_, first, g, &batch_);
  }

  Status Push() override {
    if (csv_) {
      channel_.PushBatch(std::move(lines_));
      lines_ = {};
      return Status::OK();
    }
    return engine_->IngestColumns("s", std::move(batch_));
  }

  Status Start() override { return engine_->Start(2); }
  void Stop() override { engine_->Stop(); }
  void SetProfiling(bool on) override { engine_->SetProfiling(on); }
  int64_t ChannelBacklog() const override {
    return static_cast<int64_t>(channel_.size());
  }
  int64_t BasketBacklog() const override {
    return static_cast<int64_t>(basket_->size());
  }
  int64_t malformed() const override {
    int64_t n = 0;
    for (const Stage& s : stages_) {
      if (s.query.empty()) {
        n += static_cast<datacell::Receptor*>(s.t)->malformed_lines();
      }
    }
    return n;
  }
  int64_t shed() const override { return engine_->total_shed(); }
  void ScrapeCounters(Metrics* m) const override {
    ScrapeEngineCounters({engine_->MetricsSnapshot()}, queries_, m);
  }
  void ScrapeProfile(Metrics* m) const override {
    ScrapeProfileSteps({engine_->MetricsSnapshot()}, specialized_,
                       FactoryTuples(), m);
  }
  const char* push_layer() const override {
    return csv_ ? "channel.push" : "engine.ingest";
  }

  static void AppendColumns(const Inputs& in, int64_t first,
                            const std::vector<int64_t>& g, ColumnBatch* b) {
    for (size_t i = 0; i < g.size(); ++i) {
      int64_t pos = first + static_cast<int64_t>(i);
      b->column(0).AppendInt64(in.k(pos));
      b->column(1).AppendInt64(in.v(pos));
      b->column(2).AppendInt64(g[i]);
    }
  }

 protected:
  std::map<std::string, int64_t> FactoryTuples() const {
    std::map<std::string, int64_t> out;
    for (const Stage& s : stages_) {
      if (!s.query.empty() &&
          s.t->kind() == datacell::TransitionKind::kFactory) {
        out[s.query] += s.tuples;
      }
    }
    return out;
  }

  // Declared before the engine: the receptor reads the channel until the
  // engine (and its scheduler) is gone.
  datacell::Channel channel_;
  std::unique_ptr<Engine> engine_;
  BasketPtr basket_;
  std::vector<QueryKind> queries_;
  std::map<std::string, bool> specialized_;
  bool csv_ = false;
  std::vector<std::string> lines_;
  ColumnBatch batch_;
};

// --- sharded target ------------------------------------------------------------

class ShardedTarget final : public Target {
 public:
  explicit ShardedTarget(const Inputs& in) : Target(in) {}

  Status Init(const WorkloadConfig& w) {
    int64_t t0 = NowNs();
    datacell::ShardedEngineOptions opts;
    opts.num_shards = 2;
    engine_ = std::make_unique<ShardedEngine>(opts);
    DC_ASSIGN_OR_RETURN(std::vector<QueryId> ids,
                        SetUpQueries(*engine_, w, in_, /*partitioned=*/true,
                                     &sinks_, &static_load_us_,
                                     &submit_us_per_query_));
    setup_s_ = static_cast<double>(NowNs() - t0) / 1e9;
    for (size_t s = 0; s < engine_->num_shards(); ++s) {
      DC_ASSIGN_OR_RETURN(BasketPtr b, engine_->shard(s).GetBasket("s"));
      baskets_.push_back(b);
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      DC_ASSIGN_OR_RETURN(const ShardedEngine::QueryPlacement* p,
                          engine_->GetPlacement(ids[i]));
      const std::string name = SpecFor(w.queries[i]).name;
      for (const auto& [shard, local] : p->shard_queries) {
        DC_ASSIGN_OR_RETURN(const Engine::QueryInfo* qi,
                            engine_->shard(shard).GetQuery(local));
        specialized_[name] = qi->factory->is_specialized();
        stages_.push_back(
            Stage{SpanId("factory." + name), name, qi->factory.get()});
        stages_.push_back(
            Stage{SpanId("emitter." + name), name, qi->emitter.get()});
      }
    }
    queries_ = w.queries;
    batch_.Reset(StreamSchema());
    return Status::OK();
  }

  void Prepare(int64_t first, const std::vector<int64_t>& g) override {
    EngineTarget::AppendColumns(in_, first, g, &batch_);
  }
  Status Push() override {
    return engine_->IngestColumns("s", std::move(batch_));
  }
  // 2 shards x 1 worker plus the frontend merge worker.
  Status Start() override { return engine_->Start(1); }
  void Stop() override { engine_->Stop(); }
  void SetProfiling(bool on) override {
    for (size_t s = 0; s < engine_->num_shards(); ++s) {
      engine_->shard(s).SetProfiling(on);
    }
  }
  int64_t BasketBacklog() const override {
    int64_t n = 0;
    for (const BasketPtr& b : baskets_) n += static_cast<int64_t>(b->size());
    return n;
  }
  int64_t malformed() const override { return 0; }
  int64_t shed() const override {
    int64_t n = 0;
    for (size_t s = 0; s < engine_->num_shards(); ++s) {
      n += engine_->shard(s).total_shed();
    }
    return n;
  }
  void ScrapeCounters(Metrics* m) const override {
    ScrapeEngineCounters(ShardSnapshots(), queries_, m);
    MetricsSnapshotData front = engine_->metrics().Snapshot();
    std::vector<double> routed;
    for (size_t s = 0; s < engine_->num_shards(); ++s) {
      routed.push_back(static_cast<double>(
          SumCounter({front}, "datacell_shard_routed_tuples_total", "shard",
                     std::to_string(s))));
    }
    double sum = 0, max = 0;
    for (double r : routed) {
      sum += r;
      max = std::max(max, r);
    }
    (*m)["core.shard.routed_tuples"] = sum;
    (*m)["core.shard.route_skew"] =
        Ratio(max, sum / static_cast<double>(routed.size()));
    (*m)["core.shard.merge_fires"] = static_cast<double>(
        SumCounter({front}, "datacell_transition_fires_total"));
  }
  void ScrapeProfile(Metrics* m) const override {
    std::map<std::string, int64_t> tuples;
    for (const Stage& s : stages_) {
      if (s.t->kind() == datacell::TransitionKind::kFactory) {
        tuples[s.query] += s.tuples;
      }
    }
    ScrapeProfileSteps(ShardSnapshots(), specialized_, tuples, m);
  }
  Status Frontend() override {
    engine_->Drain();
    return Status::OK();
  }
  bool has_frontend() const override { return true; }
  const char* push_layer() const override { return "shard.ingest"; }

 private:
  std::vector<MetricsSnapshotData> ShardSnapshots() const {
    std::vector<MetricsSnapshotData> out;
    for (size_t s = 0; s < engine_->num_shards(); ++s) {
      out.push_back(engine_->shard(s).MetricsSnapshot());
    }
    return out;
  }

  std::unique_ptr<ShardedEngine> engine_;
  std::vector<BasketPtr> baskets_;
  std::vector<QueryKind> queries_;
  std::map<std::string, bool> specialized_;
  ColumnBatch batch_;
};

}  // namespace

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

datacell::Result<std::unique_ptr<Target>> Target::Create(
    const WorkloadConfig& w, const Inputs& in) {
  const std::string name = w.name;
  if (name == "sharded_mixed") {
    auto t = std::make_unique<ShardedTarget>(in);
    DC_RETURN_NOT_OK(t->Init(w));
    return std::unique_ptr<Target>(std::move(t));
  }
  auto t = std::make_unique<EngineTarget>(in);
  DC_RETURN_NOT_OK(t->Init(w, /*csv=*/name == "csv_filter"));
  return std::unique_ptr<Target>(std::move(t));
}

// --- threaded driver -----------------------------------------------------------

int64_t ThreadedDriver::Accounted() const {
  int64_t acc = sent_;
  for (const auto& s : t_->sinks()) {
    acc = std::min(acc, in_.CoveredPrefix(s->kind(), s->units(), sent_));
  }
  return acc;
}

void ThreadedDriver::Send(const std::vector<int64_t>& g) {
  t_->Prepare(sent_, g);
  Status st = t_->Push();
  if (!st.ok() && error_.ok()) error_ = st;
  sent_ += static_cast<int64_t>(g.size());
}

bool ThreadedDriver::WaitDrained(double timeout_s) {
  int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (Accounted() < sent_) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

void ThreadedDriver::CloseSubwindow(Phase* p, bool record) {
  LatencyHistogram sub;
  for (const auto& s : t_->sinks()) {
    LatencyHistogram h;
    s->TakeLatency(&h);
    p->by_query[s->name()].Merge(h);
    sub.Merge(h);
  }
  p->latency.Merge(sub);
  if (record && sub.count() > 0) {
    p->sub_p50_us.push_back(sub.PercentileNs(0.50) / 1e3);
    p->sub_p99_us.push_back(sub.PercentileNs(0.99) / 1e3);
    p->sub_late_us.push_back(sub_late_us_);
  }
  sub_late_us_ = 0;
}

Phase ThreadedDriver::ClosedLoop(double seconds, int subwindows) {
  Phase p;
  const int64_t first = sent_;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t sub_len = (end - start) / subwindows;
  int64_t sub_start = start;
  int64_t sub_acc = Accounted();
  std::vector<int64_t> g(kChunk);
  int64_t prev = start;
  double gap_us = 0;  // longest stretch the generator did not run
  for (int64_t now = start; now < end; prev = now, now = NowNs()) {
    gap_us = std::max(gap_us, static_cast<double>(now - prev) / 1e3);
    if (now - sub_start >= sub_len) {
      int64_t acc = Accounted();
      p.sub_tps.push_back(static_cast<double>(acc - sub_acc) * 1e9 /
                          static_cast<double>(now - sub_start));
      p.sub_late_us.push_back(gap_us);
      gap_us = 0;
      sub_start = now;
      sub_acc = acc;
    }
    if (!error_.ok()) break;
    if (sent_ - Accounted() < kInFlightWindow) {
      std::fill(g.begin(), g.end(), now);
      Send(g);
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  p.seconds = static_cast<double>(NowNs() - start) / 1e9;
  p.tuples = sent_ - first;
  p.end_inflight = sent_ - Accounted();
  p.drained = WaitDrained(30);
  CloseSubwindow(&p, false);
  return p;
}

Phase ThreadedDriver::OpenLoop(double rate, double seconds, int subwindows,
                               int64_t abort_backlog) {
  Phase p;
  const int64_t first = sent_;
  const int64_t total = static_cast<int64_t>(rate * seconds);
  const int64_t t0 = NowNs() + 1000000;
  perfbench::OpenLoop sched(t0, rate);
  const int64_t sub_len = static_cast<int64_t>(seconds * 1e9) / subwindows;
  int64_t next_sub = t0 + sub_len;
  int closed = 0;
  const int64_t acc0 = Accounted();
  sub_late_us_ = 0;
  const double cpu0 = ProcessCpuSeconds() - ThreadCpuSeconds();
  std::vector<int64_t> g;
  int64_t wake = t0;
  int64_t wakes = 0;
  while (sched.next() < total) {
    wake += kSendPeriodNs;
    SleepUntilNs(wake);
    int64_t now = NowNs();
    const double late_us = static_cast<double>(now - wake) / 1e3;
    p.gen_late_max_us = std::max(p.gen_late_max_us, late_us);
    sub_late_us_ = std::max(sub_late_us_, late_us);
    g.clear();
    if (sched.TakeDue(now, total, &g) > 0) Send(g);
    if (++wakes % 10 == 0) {
      p.channel_backlog.push_back(t_->ChannelBacklog());
      p.basket_backlog.push_back(t_->BasketBacklog());
      if (abort_backlog > 0 && sent_ - Accounted() > abort_backlog) {
        p.aborted = true;
        break;
      }
    }
    if (now >= next_sub && closed + 1 < subwindows) {
      CloseSubwindow(&p, true);
      ++closed;
      next_sub += sub_len;
    }
  }
  p.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  p.tuples = sent_ - first;
  int64_t acc = Accounted();
  p.end_inflight = sent_ - acc;
  p.accounted_in_phase = acc - acc0;
  p.drained = WaitDrained(30);
  // The drain tail belongs to the last sub-window.
  CloseSubwindow(&p, true);
  p.cpu_s = ProcessCpuSeconds() - ThreadCpuSeconds() - cpu0;
  return p;
}

namespace {

bool HostQuiet() {
  const int64_t end = NowNs() + 250000000;
  for (int64_t wake = NowNs(); wake < end;) {
    wake += kSendPeriodNs;
    SleepUntilNs(wake);
    const int64_t now = NowNs();
    if (static_cast<double>(now - wake) / 1e3 > kDisturbedLateUs) return false;
  }
  return true;
}

}  // namespace

double WaitForQuietHost(int64_t deadline_ns) {
  const int64_t start = NowNs();
  while (NowNs() < deadline_ns && !HostQuiet()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
  return static_cast<double>(NowNs() - start) / 1e9;
}

double Phase::disturbed_share() const {
  size_t late = 0;
  for (double us : sub_late_us) late += us > kDisturbedLateUs ? 1 : 0;
  return sub_late_us.empty() ? 0
                             : static_cast<double>(late) /
                                   static_cast<double>(sub_late_us.size());
}

// --- stepped driver ------------------------------------------------------------

SteppedResult RunStepped(Target* t, double seconds, Tracer* tracer,
                         int64_t max_tuples) {
  SteppedResult res;
  const uint32_t round_span = SpanId("driver.round");
  const uint32_t gen_span = SpanId("gen");
  const uint32_t push_span = SpanId(t->push_layer());
  const uint32_t front_span = SpanId("frontend.merge");
  g_tracer = tracer;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<int64_t> g(kChunk);
  int64_t first = 0;
  while (res.status.ok() && NowNs() < end &&
         (max_tuples < 0 || first < max_tuples)) {
    ScopedSpan round(round_span);
    {
      ScopedSpan s(gen_span);
      std::fill(g.begin(), g.end(), NowNs());
      t->Prepare(first, g);
    }
    {
      ScopedSpan s(push_span);
      res.status = t->Push();
    }
    first += kChunk;
    bool fired = true;
    while (fired && res.status.ok()) {
      fired = false;
      for (Target::Stage& st : t->stages()) {
        if (!st.t->Ready()) continue;
        ScopedSpan s(st.span);
        datacell::Result<int64_t> r = st.t->Fire();
        if (!r.ok()) {
          res.status = r.status();
          break;
        }
        st.tuples += *r;
        fired = fired || *r > 0;
      }
    }
    if (t->has_frontend() && res.status.ok()) {
      ScopedSpan s(front_span);
      res.status = t->Frontend();
    }
  }
  res.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  res.tuples = first;
  g_tracer = nullptr;
  return res;
}

// --- process stats ---------------------------------------------------------------

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> xs) { return Quantile(std::move(xs), 0.5); }

double QuietLatency(const std::vector<double>& sub) {
  return Quantile(sub, 0.25);
}


}  // namespace perfbench
