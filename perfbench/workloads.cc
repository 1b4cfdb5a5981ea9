// The three workloads. Each round builds fresh clusters with the legacy
// (default) scheduler: SimThreads are OS threads but run one at a time, so
// the host-clock marks and shared result vectors below need no locking.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cluster.h"
#include "harness.h"
#include "kv/kv.h"
#include "load/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace perfbench {
namespace {

using rstore::ErrorCode;
using rstore::LatencyHistogram;
using rstore::Result;
using rstore::Status;
namespace core = rstore::core;
namespace kv = rstore::kv;
namespace load = rstore::load;
namespace obs = rstore::obs;
namespace sim = rstore::sim;

// --- metric catalogue: every workload reports every metric -------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kVirtualMetrics[] = {
    {"lat_mean_us", "us"},        {"lat_tail_us", "us"},
    {"goodput_kops", "kop/s"},    {"max_rate_kops", "kop/s"},
    {"throughput_kops", "kop/s"}, {"read_gbps", "Gb/s"},
    {"write_gbps", "Gb/s"},       {"ok_frac", "frac"},
};

constexpr MetricSpec kLayerMetrics[] = {
    {"sim.events", "count"},
    {"sim.slices", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.ctx_switches", "count"},
    {"sim.user_s", "s"},
    {"sim.sys_s", "s"},
    {"fabric.bytes_out", "B"},
    {"fabric.queue_ns", "ns"},
    {"fabric.serialization_ns", "ns"},
    {"fabric.egress_depth", "count"},
    {"verbs.doorbells", "count"},
    {"verbs.wrs_per_doorbell", "count"},
    {"verbs.cq_batch", "count"},
    {"verbs.minflt", "count"},
    {"core.read_us", "us"},
    {"core.write_us", "us"},
    {"core.ralloc_us", "us"},
    {"core.rmap_us", "us"},
    {"core.control_host_s", "s"},
    {"rpc.calls", "count"},
    {"rpc.call_us", "us"},
    {"kv.get_us_p50", "us"},
    {"kv.get_us_p999", "us"},
    {"kv.put_us_p50", "us"},
    {"kv.put_us_p999", "us"},
    {"kv.probes_per_op", "count"},
    {"kv.retries_per_op", "count"},
    {"kv.useful_frac", "frac"},
    {"load.steps_per_op", "count"},
    {"load.retries_per_op", "count"},
    {"load.defer_frac", "frac"},
    {"load.shed", "count"},
    {"load.inflight_high_water", "count"},
    {"load.mean_chain", "count"},
    {"load.sessions_per_qp", "count"},
    {"load.drain_lag_us", "us"},
    {"load.stage.backlog_ns", "ns"},
    {"load.stage.admit_ns", "ns"},
    {"load.stage.mux_ns", "ns"},
    {"load.stage.egress_ns", "ns"},
    {"load.stage.wire_ns", "ns"},
    {"load.stage.server_ns", "ns"},
    {"load.stage.ack_ns", "ns"},
    {"load.stage.cqpoll_ns", "ns"},
    {"load.stage.backoff_ns", "ns"},
};

template <size_t N>
std::vector<Metric> Zeroed(const MetricSpec (&specs)[N]) {
  std::vector<Metric> out;
  for (const MetricSpec& s : specs) out.push_back(Metric{s.name, s.unit, 0});
  return out;
}

void Set(std::vector<Metric>& metrics, std::string_view name, double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown metric %.*s\n",
               static_cast<int>(name.size()), name.data());
  std::abort();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }
double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

// Starts the round's virtual metrics with the latency of `latency`, the
// workload's op population; each workload sets the rest.
void FillLatency(RoundResult& r, const LatencyHistogram& latency,
                 uint64_t limit_ns) {
  r.virt = Zeroed(kVirtualMetrics);
  const TailPick tail = PickTail(latency.count());
  if (tail.label.empty()) {
    r.errors.push_back("too few latency samples for a tail percentile");
  }
  char note[200];
  std::snprintf(note, sizeof note,
                "latency: %llu samples, p50 %.3f us, mean %.3f us, "
                "tail = %s (%llu samples beyond) %.3f us, limit %.0f us",
                static_cast<unsigned long long>(latency.count()),
                Us(latency.Quantile(0.5)), latency.mean() / 1e3,
                tail.label.c_str(),
                static_cast<unsigned long long>(tail.beyond),
                Us(latency.Quantile(tail.q)), Us(limit_ns));
  r.notes = note;
  // The mean stands in for the median: in a lightly loaded simulation most
  // ops take exactly the uncontended path, so the median reads the same
  // on every seed and would not show a change in contention.
  Set(r.virt, "lat_mean_us", latency.mean() / 1e3);
  Set(r.virt, "lat_tail_us", Us(latency.Quantile(tail.q)));
}

// Closed loops: every op counts toward throughput and goodput, and a closed
// loop offers exactly what it completes, so its highest rate that meets the
// limit is its within-limit rate.
void FillClosedLoopRates(RoundResult& r, uint64_t within, double seconds) {
  const double goodput = Ratio(within, seconds) / 1e3;
  Set(r.virt, "goodput_kops", goodput);
  Set(r.virt, "max_rate_kops", goodput);
  Set(r.virt, "throughput_kops", Ratio(r.attempted - r.failed, seconds) / 1e3);
  Set(r.virt, "ok_frac", Ratio(r.attempted - r.failed, r.attempted));
}

// Host-clock marks and scheduler counters around the measured phase. The
// first Begin() and the last End() of a cluster bound it.
struct Phase {
  double build_start = 0;
  double control_done = 0;
  double begin = std::numeric_limits<double>::infinity();
  double end = 0;
  HostUsage usage_begin, usage_end;
  uint64_t events_begin = 0, events_end = 0;
  uint64_t slices_begin = 0, slices_end = 0;

  void ControlDone() { control_done = std::max(control_done, HostSeconds()); }
  void Begin(sim::Simulation& s) {
    if (begin != std::numeric_limits<double>::infinity()) return;
    begin = HostSeconds();
    usage_begin = HostUsage::Now();
    events_begin = s.events_processed();
    slices_begin = s.thread_slices();
  }
  void End(sim::Simulation& s) {
    end = HostSeconds();
    usage_end = HostUsage::Now();
    events_end = s.events_processed();
    slices_end = s.thread_slices();
  }
  // Adds this cluster's host figures to the round.
  void Account(RoundResult& r) const {
    r.setup_s.push_back(begin - build_start);
    r.wall_s += end - begin;
    r.usage += usage_end - usage_begin;
  }
};

// A cluster plus the telemetry a traced round attaches to it.
struct Bench {
  std::unique_ptr<obs::Telemetry> telemetry;
  std::unique_ptr<core::TestCluster> cluster;
  Phase phase;

  Bench(core::ClusterConfig cfg, bool traced) {
    phase.build_start = HostSeconds();
    if (traced) {
      telemetry = std::make_unique<obs::Telemetry>();
      telemetry->EnableTracing(true);
      telemetry->tracer().SetCapacity(1u << 20);
      cfg.telemetry = telemetry.get();
    }
    cluster = std::make_unique<core::TestCluster>(cfg);
  }
  sim::Simulation& sim() { return cluster->sim(); }
  obs::Telemetry* tel() { return telemetry.get(); }
  void Fingerprint(RoundResult& r) {
    r.fingerprint.push_back(static_cast<uint64_t>(sim().NowNanos()));
    r.fingerprint.push_back(sim().events_processed());
  }
};

// Per-layer metrics every workload shares: scheduler counters and host
// usage over the measured phase, plus the telemetry registry when traced.
void FillCommonLayers(RoundResult& r, const Bench& b, const HostUsage& usage,
                      double wall_s) {
  r.layer = Zeroed(kLayerMetrics);
  const Phase& p = b.phase;
  const double events = static_cast<double>(p.events_end - p.events_begin);
  Set(r.layer, "sim.events", events);
  Set(r.layer, "sim.slices",
      static_cast<double>(p.slices_end - p.slices_begin));
  Set(r.layer, "sim.host_ns_per_event", Ratio(wall_s * 1e9, events));
  Set(r.layer, "sim.ctx_switches", static_cast<double>(usage.ctx_switches));
  Set(r.layer, "sim.user_s", usage.user_s);
  Set(r.layer, "sim.sys_s", usage.sys_s);
  Set(r.layer, "verbs.minflt", static_cast<double>(usage.minflt));
  Set(r.layer, "core.control_host_s", p.control_done - p.build_start);
  if (b.telemetry == nullptr) return;
  obs::NodeMetrics m = b.telemetry->metrics().Merged();
  auto counter = [&m](const char* n) {
    return static_cast<double>(m.GetCounter(n).value());
  };
  auto mean = [&m](const char* n) { return m.GetTimer(n).hist().mean(); };
  Set(r.layer, "fabric.bytes_out", counter("fabric.bytes_out"));
  Set(r.layer, "fabric.queue_ns", counter("fabric.queue_ns"));
  Set(r.layer, "fabric.serialization_ns", counter("fabric.serialization_ns"));
  Set(r.layer, "fabric.egress_depth",
      static_cast<double>(m.GetGauge("fabric.egress_depth").high_water()));
  Set(r.layer, "verbs.doorbells", counter("verbs.doorbells"));
  Set(r.layer, "verbs.wrs_per_doorbell", mean("verbs.wrs_per_doorbell"));
  Set(r.layer, "verbs.cq_batch", mean("verbs.cq_batch"));
  // Master-side service time of the control-path RPCs.
  Set(r.layer, "core.ralloc_us", mean("rpc.ralloc_ns") / 1e3);
  Set(r.layer, "core.rmap_us", mean("rpc.rmap_ns") / 1e3);
  Set(r.layer, "rpc.calls", counter("rpc.calls"));
  Set(r.layer, "rpc.call_us", mean("rpc.call_ns") / 1e3);
}

uint64_t SubSeed(uint64_t seed, uint64_t a, uint64_t b = 0) {
  rstore::Rng rng(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                  (b * 0xc2b2ae3d27d4eb4fULL));
  return rng.Next();
}

// ---------------------------------------------------------------------------
// fanin-read: open loop, LoadEngine over RKV, YCSB-B: a light step, a
// search for the knee and a bursty overload step.
// ---------------------------------------------------------------------------

constexpr uint32_t kFaninServers = 8;
constexpr uint32_t kFaninClients = 4;
// p999 limit: about five times the unloaded p999 (18 us at 1M ops/s), the
// headroom a microsecond-scale store leaves before queueing dominates.
constexpr sim::Nanos kFaninLimit = sim::Micros(100);
// A step keeps up when its last op finishes within this of the window end.
constexpr sim::Nanos kFaninDrainLimit = sim::Micros(200);

struct FaninStep {
  const char* name;
  double rate;       // offered ops/s (the burst rate of a bursty step)
  double window_ms;  // open-loop arrival window
  bool bursty;       // rate for 100 us of every 500 us, rate/5 otherwise
};
constexpr FaninStep kLight = {"light", 1e6, 15, false};
// A sustained overload only measures one chaotic transient; bursts at about
// twice the knee average over sixteen of them.
constexpr FaninStep kOverload = {"overload", 20e6, 8, true};
// A knee search bisects the offered rate on a grid of kKneeResolution
// between the light and overload rates. Each probe is a sustained step of
// kKneeWindowMs; the overload rate counts as missing the limit. Whether a
// probe near the knee keeps up depends on the seed (on 30 seeds, 10.5M
// ops/s kept up on 93%, 11M on 57%, 11.5M on 10%), so one search lands a
// grid step apart between seeds; kKneeSearches searches with their own
// seeds are averaged.
constexpr double kKneeResolution = 0.5e6;
constexpr double kKneeWindowMs = 2;
constexpr uint32_t kKneeSearches = 3;

struct FaninOutcome {
  FaninStep step;
  load::EngineStats stats;  // merged over engines
  uint64_t chains = 0, wrs = 0;
  sim::Nanos window_start = sim::kNever;
  sim::Nanos window_end = 0;
  sim::Nanos drained = 0;
  double achieved_kops = 0;
  double within_kops = 0;
  bool keeps_up = false;

  // How long after the arrival window the last op finished: backlog growth.
  [[nodiscard]] sim::Nanos DrainLag() const {
    return drained > window_end ? drained - window_end : 0;
  }
};

FaninOutcome RunFaninStep(const RoundConfig& config, const FaninStep& step,
                          RoundResult& r, bool last) {
  load::LoadOptions opts;
  opts.sessions = 10000;
  opts.preload_keys = 16384;
  opts.slot_bytes = 256;
  opts.theta = 0.99;
  opts.mix = load::WorkloadMix::Ycsb('b');
  opts.admission = true;
  opts.offered_load = step.rate;
  opts.duration = sim::Millis(step.window_ms);
  opts.seed = config.seed;
  if (step.bursty) {
    opts.curve.shape = load::ArrivalShape::kBurst;
    opts.curve.burst_period = sim::Micros(500);
    opts.curve.burst_duty = 0.2;
    opts.curve.burst_multiplier = 1.0;
    opts.curve.base_fraction = 0.2;
  }
  opts.rtrace.mode =
      config.traced ? obs::RtraceMode::kFull : obs::RtraceMode::kOff;

  core::ClusterConfig cfg;
  cfg.memory_servers = kFaninServers;
  cfg.client_nodes = kFaninClients;
  cfg.server_capacity =
      (opts.buckets() * opts.slot_bytes + 4096) / kFaninServers + (8ULL << 20);
  cfg.master.slab_size = 1ULL << 20;
  cfg.seed = config.seed;
  Bench b(cfg, config.traced);

  std::vector<load::EngineStats> per_engine(kFaninClients);
  std::vector<Status> status(kFaninClients, Status::Ok());
  for (uint32_t c = 0; c < kFaninClients; ++c) {
    b.cluster->SpawnClient(c, [&, c](core::RStoreClient& client) {
      if (c == 0) {
        status[c] = load::LoadEngine::PreloadTable(client, "fanin", opts);
        if (!status[c].ok()) return;
        (void)client.NotifyInc("perfbench.loaded");
      }
      auto loaded = client.WaitNotify("perfbench.loaded", 1);
      if (!loaded.ok()) {
        status[c] = loaded.status();
        return;
      }
      b.phase.ControlDone();
      load::LoadEngine engine(client, "fanin", opts, c, kFaninClients);
      b.phase.Begin(b.sim());
      status[c] = engine.Run();
      b.phase.End(b.sim());
      per_engine[c] = engine.stats();
    });
  }
  b.sim().Run();
  b.phase.Account(r);
  b.Fingerprint(r);

  FaninOutcome o;
  o.step = step;
  load::EngineStats& m = o.stats;
  for (uint32_t c = 0; c < kFaninClients; ++c) {
    if (!status[c].ok()) {
      r.errors.push_back("fanin engine " + std::to_string(c) + ": " +
                         status[c].message());
    }
    const load::EngineStats& s = per_engine[c];
    if (!ArrivalsBalance(s.arrivals, s.completed, s.shed, s.errors)) {
      r.errors.push_back("fanin engine " + std::to_string(c) +
                         ": arrivals != completed + shed + errors");
    }
  }
  for (const load::EngineStats& s : per_engine) {
    m.arrivals += s.arrivals;
    m.completed += s.completed;
    for (uint32_t t = 0; t < load::kOpTypes; ++t) {
      m.completed_by_type[t] += s.completed_by_type[t];
    }
    m.errors += s.errors;
    m.shed += s.shed;
    m.retries += s.retries;
    m.steps += s.steps;
    m.sessions += s.sessions;
    m.qps += s.qps;
    m.latency.Merge(s.latency);
    m.admission.deferred += s.admission.deferred;
    m.admission.inflight_high_water = std::max(
        m.admission.inflight_high_water, s.admission.inflight_high_water);
    o.chains += s.mux.chains_posted;
    o.wrs += s.mux.wrs_posted;
    o.window_start = std::min(o.window_start, s.window_start);
    o.drained = std::max(o.drained, s.drained_at);
    m.rtrace.config = s.rtrace.config;
    m.rtrace.Merge(s.rtrace);
  }
  o.window_end = o.window_start + opts.duration;
  const double secs = sim::ToSeconds(o.drained - o.window_start);
  o.achieved_kops = Ratio(m.completed, secs) / 1e3;
  o.within_kops = Ratio(CountWithin(m.latency, kFaninLimit), secs) / 1e3;
  const TailPick tail = PickTail(m.latency.count());
  o.keeps_up = m.shed == 0 && m.errors == 0 &&
               m.latency.Quantile(tail.q) <= kFaninLimit &&
               o.DrainLag() <= kFaninDrainLimit;
  r.attempted += m.arrivals;
  r.failed += m.errors;

  if (last) {
    FillCommonLayers(r, b, b.phase.usage_end - b.phase.usage_begin,
                     b.phase.end - b.phase.begin);
    Set(r.layer, "load.steps_per_op", Ratio(m.steps, m.completed));
    Set(r.layer, "load.retries_per_op", Ratio(m.retries, m.completed));
    Set(r.layer, "load.defer_frac", Ratio(m.admission.deferred, m.arrivals));
    Set(r.layer, "load.shed", static_cast<double>(m.shed));
    Set(r.layer, "load.inflight_high_water",
        m.admission.inflight_high_water);
    Set(r.layer, "load.mean_chain", Ratio(o.wrs, o.chains));
    Set(r.layer, "load.sessions_per_qp", Ratio(m.sessions, m.qps));
    Set(r.layer, "load.drain_lag_us", Us(o.DrainLag()));
    if (config.traced) {
      const StageBand band = P999Band(m.rtrace);
      if (!band.Sums()) {
        r.errors.push_back("rtrace p999 stages do not sum to the band total");
      }
      for (uint32_t i = 0; i < obs::kRtraceStageCount; ++i) {
        Set(r.layer,
            "load.stage." + std::string(obs::RtraceStageName(i)) + "_ns",
            static_cast<double>(band.stage_ns[i]));
      }
    }
  }
  return o;
}

RoundResult RunFaninRead(const RoundConfig& config) {
  RoundResult r;
  std::vector<FaninOutcome> steps;
  std::vector<double> walls;
  auto run = [&](const RoundConfig& cfg, const FaninStep& step,
                 bool last) -> const FaninOutcome& {
    const double w0 = r.wall_s;
    steps.push_back(RunFaninStep(cfg, step, r, last));
    walls.push_back(r.wall_s - w0);
    return steps.back();
  };
  const FaninOutcome light = run(config, kLight, false);
  // max_rate_kops: the mean over the searches of the achieved rate of the
  // highest probe that keeps up (the light step's when none does); the
  // light step's within-limit rate when even it misses the limit.
  double max_rate = light.within_kops;
  if (light.keeps_up) {
    max_rate = 0;
    for (uint32_t k = 0; k < kKneeSearches; ++k) {
      RoundConfig search = config;
      search.seed = SubSeed(config.seed, k, 3);
      double best = light.achieved_kops;
      size_t lo = 0;  // grid index known to keep up (0 = the light rate)
      size_t hi = static_cast<size_t>((kOverload.rate - kLight.rate) /
                                      kKneeResolution);
      while (hi - lo > 1) {
        const size_t mid = (lo + hi) / 2;
        const FaninStep probe = {"probe", kLight.rate + mid * kKneeResolution,
                                 kKneeWindowMs, false};
        const FaninOutcome& o = run(search, probe, false);
        // wall_s covers the light and overload steps only: how many probes
        // run, and at which rates, depends on where the knee falls.
        r.wall_s -= walls.back();
        if (o.keeps_up) best = o.achieved_kops;
        (o.keeps_up ? lo : hi) = mid;
      }
      max_rate += best / kKneeSearches;
    }
  }
  const FaninOutcome overload = run(config, kOverload, true);
  FillLatency(r, light.stats.latency, kFaninLimit);
  Set(r.virt, "max_rate_kops", max_rate);
  // The rest describe the overload step. Shed ops count as misses in
  // goodput and ok_frac; `failed` counts only ops that errored.
  const load::EngineStats& o = overload.stats;
  const double secs = sim::ToSeconds(overload.drained - overload.window_start);
  const double value_bits = 8.0 * load::LoadOptions{}.value_bytes;
  const auto completed = [&o](load::OpType t) {
    return static_cast<double>(o.completed_by_type[static_cast<int>(t)]);
  };
  Set(r.virt, "goodput_kops", overload.within_kops);
  Set(r.virt, "throughput_kops", overload.achieved_kops);
  Set(r.virt, "read_gbps",
      Ratio(value_bits * completed(load::OpType::kRead), secs) / 1e9);
  Set(r.virt, "write_gbps",
      Ratio(value_bits * completed(load::OpType::kUpdate), secs) / 1e9);
  Set(r.virt, "ok_frac",
      Ratio(static_cast<double>(o.arrivals - o.shed - o.errors), o.arrivals));
  for (size_t i = 0; i < steps.size(); ++i) {
    const FaninOutcome& s = steps[i];
    char note[200];
    std::snprintf(
        note, sizeof note,
        "\n# step %s %.1fM/s: %s, achieved %.0fk/s, goodput %.0fk/s, "
        "tail %.1f us, shed %llu, errors %llu, drain lag %.1f us, wall %.2f s",
        s.step.name, s.step.rate / 1e6,
        s.keeps_up ? "keeps up" : "misses the limit",
        s.achieved_kops, s.within_kops,
        Us(s.stats.latency.Quantile(PickTail(s.stats.latency.count()).q)),
        static_cast<unsigned long long>(s.stats.shed),
        static_cast<unsigned long long>(s.stats.errors),
        Us(s.DrainLag()), walls[i]);
    r.notes += note;
  }
  return r;
}

// ---------------------------------------------------------------------------
// kv-update: closed loop, blocking KvStore, YCSB-A, 8 clients x 1 thread.
// ---------------------------------------------------------------------------

constexpr uint32_t kKvServers = 4;
constexpr uint32_t kKvClients = 8;
// p999 limit: seqlock conflicts on the zipf head put the update p999 near
// 45 us; a tail past 200 us means the write path stalls.
constexpr sim::Nanos kKvLimit = sim::Micros(200);

std::string KvKey(uint64_t id) { return "user" + std::to_string(id); }

RoundResult RunKvUpdate(const RoundConfig& config) {
  constexpr uint64_t keys = 4096;
  constexpr uint32_t ops_per_client = 3000;

  core::ClusterConfig cfg;
  cfg.memory_servers = kKvServers;
  cfg.client_nodes = kKvClients;
  cfg.server_capacity = 16ULL << 20;
  cfg.master.slab_size = 1ULL << 20;
  cfg.seed = config.seed;
  Bench b(cfg, config.traced);

  struct ClientOut {
    LatencyHistogram get, put;
    uint64_t gets = 0, puts = 0, failed = 0;
    kv::KvStats stats;
    std::vector<uint64_t> written;  // key_id << 32 | seq
    sim::Nanos t0 = 0, t1 = 0;
    std::vector<std::string> errors;
  };
  std::vector<ClientOut> out(kKvClients);

  for (uint32_t c = 0; c < kKvClients; ++c) {
    b.cluster->SpawnClient(c, [&, c](core::RStoreClient& client) {
      ClientOut& o = out[c];
      auto fail = [&o](std::string why) { o.errors.push_back(std::move(why)); };
      Result<std::unique_ptr<kv::KvStore>> store(ErrorCode::kInternal, "");
      if (c == 0) {
        kv::KvOptions kopts;
        kopts.buckets = 4 * keys;
        store = kv::KvStore::Create(client, "perfbench.kv", kopts);
        (void)client.NotifyInc("perfbench.created");
      } else {
        (void)client.WaitNotify("perfbench.created", 1);
        store = kv::KvStore::Open(client, "perfbench.kv");
      }
      if (!store.ok()) return fail("kv open: " + store.status().message());
      kv::KvStore& kvs = **store;
      b.phase.ControlDone();
      std::byte value[kKvValueBytes];
      // Put, retried while it loses seqlock races (kAborted), like a YCSB
      // client would; a bounded number of tries keeps a livelock visible.
      auto put = [&](uint64_t id, const KvRecord& rec) {
        EncodeKvValue(rec, value);
        Status st;
        for (int attempt = 0; attempt < 1000; ++attempt) {
          st = kvs.Put(KvKey(id), std::span<const std::byte>(value));
          if (st.code() != ErrorCode::kAborted) break;
        }
        return st;
      };
      for (uint64_t id = c; id < keys; id += kKvClients) {
        if (!put(id, KvRecord{id, kPreloadWriter, 0}).ok()) {
          return fail("kv preload failed");
        }
      }
      (void)client.NotifyInc("perfbench.armed");
      (void)client.WaitNotify("perfbench.armed", kKvClients);

      b.phase.Begin(b.sim());
      obs::Telemetry* tel = b.tel();
      const uint32_t node = client.device().node_id();
      rstore::ZipfGenerator zipf(keys, 0.99, SubSeed(config.seed, c, 1));
      rstore::Rng dice(SubSeed(config.seed, c, 2));
      const kv::KvStats before = kvs.stats();
      o.t0 = sim::Now();
      uint32_t seq = 0;
      for (uint32_t i = 0; i < ops_per_client; ++i) {
        const uint64_t id = zipf.Next();
        const sim::Nanos start = sim::Now();
        if (dice.NextDouble() < 0.5) {
          obs::ObsSpan span(tel, node, "perfbench", "kv.get");
          auto got = kvs.Get(KvKey(id));
          KvRecord rec;
          if (!got.ok()) {
            ++o.failed;
          } else if (!DecodeKvValue(got->data(), got->size(), id, &rec)) {
            fail("kv get returned a malformed value for " + KvKey(id));
          }
          ++o.gets;
          o.get.Add(sim::Now() - start);
        } else {
          obs::ObsSpan span(tel, node, "perfbench", "kv.put");
          o.written.push_back(id << 32 | ++seq);
          if (!put(id, KvRecord{id, c, seq}).ok()) ++o.failed;
          ++o.puts;
          o.put.Add(sim::Now() - start);
        }
      }
      o.t1 = sim::Now();
      o.stats = kvs.stats();
      o.stats.gets -= before.gets;
      o.stats.puts -= before.puts;
      o.stats.probe_reads -= before.probe_reads;
      o.stats.version_retries -= before.version_retries;
      b.phase.End(b.sim());
      (void)client.NotifyInc("perfbench.done");
      if (c != 0) return;

      // Read-back: every key holds a value some client wrote to it.
      (void)client.WaitNotify("perfbench.done", kKvClients);
      if (config.plant == Plant::kKvUnwritten) {
        // Well-formed and for key 0, but no client wrote this sequence.
        std::byte bogus[kKvValueBytes];
        EncodeKvValue(KvRecord{0, 0, 0xffffffff}, bogus);
        (void)kvs.Put(KvKey(0), std::span<const std::byte>(bogus));
      }
      std::vector<std::set<uint64_t>> written(kKvClients);
      for (uint32_t w = 0; w < kKvClients; ++w) {
        written[w].insert(out[w].written.begin(), out[w].written.end());
      }
      uint64_t bad = 0;
      for (uint64_t id = 0; id < keys; ++id) {
        auto got = kvs.Get(KvKey(id));
        KvRecord rec;
        const bool ok =
            got.ok() && DecodeKvValue(got->data(), got->size(), id, &rec) &&
            (rec.writer == kPreloadWriter
                 ? rec.seq == 0
                 : rec.writer < kKvClients &&
                       written[rec.writer].count(id << 32 | rec.seq) == 1);
        if (!ok) ++bad;
      }
      if (bad > 0) {
        fail("kv read-back: " + std::to_string(bad) +
             " keys hold a value no client wrote");
      }
    });
  }
  b.sim().Run();

  RoundResult r;
  b.phase.Account(r);
  b.Fingerprint(r);
  LatencyHistogram get, put;
  uint64_t gets = 0, puts = 0, probes = 0, retries = 0;
  sim::Nanos t0 = sim::kNever, t1 = 0;
  for (const ClientOut& o : out) {
    r.errors.insert(r.errors.end(), o.errors.begin(), o.errors.end());
    get.Merge(o.get);
    put.Merge(o.put);
    gets += o.gets;
    puts += o.puts;
    r.failed += o.failed;
    probes += o.stats.probe_reads;
    retries += o.stats.version_retries;
    t0 = std::min(t0, o.t0);
    t1 = std::max(t1, o.t1);
  }
  r.attempted = gets + puts;
  if (r.attempted != uint64_t{kKvClients} * ops_per_client) {
    r.errors.push_back("kv-update: not every client finished its ops");
  }
  // The latency population is the updates: the write path is what this
  // workload exists for, and with a 50/50 mix the median of all ops would
  // sit in the gap between the read and update modes.
  FillLatency(r, put, kKvLimit);
  const double secs = sim::ToSeconds(t1 - t0);
  FillClosedLoopRates(
      r, CountWithin(put, kKvLimit) + CountWithin(get, kKvLimit), secs);
  const double value_bits = 8.0 * kKvValueBytes;
  Set(r.virt, "read_gbps", Ratio(value_bits * gets, secs) / 1e9);
  Set(r.virt, "write_gbps", Ratio(value_bits * puts, secs) / 1e9);

  FillCommonLayers(r, b, r.usage, r.wall_s);
  Set(r.layer, "kv.get_us_p50", Us(get.Quantile(0.5)));
  Set(r.layer, "kv.get_us_p999", Us(get.Quantile(0.999)));
  Set(r.layer, "kv.put_us_p50", Us(put.Quantile(0.5)));
  Set(r.layer, "kv.put_us_p999", Us(put.Quantile(0.999)));
  Set(r.layer, "kv.probes_per_op", Ratio(probes, gets + puts));
  Set(r.layer, "kv.retries_per_op", Ratio(retries, gets + puts));
  Set(r.layer, "kv.useful_frac", Ratio(gets + puts, probes));
  return r;
}

// ---------------------------------------------------------------------------
// stream-rw: closed-loop bulk IO, 8 clients x region striped over 8 servers.
// ---------------------------------------------------------------------------

constexpr uint32_t kStreamNodes = 8;
constexpr uint32_t kPipelinePasses = 2;  // passes in flight per client
// Per-IO limit: a pipeline of two passes queues up to 2 x 8 MiB behind one
// NIC (about 2.3 ms at 58.8 Gb/s); 10 ms means the fabric stalled.
constexpr sim::Nanos kStreamLimit = sim::Millis(10);

struct Chunk {
  uint64_t offset;
  uint64_t bytes;
};

// Splits the region into `count` chunks whose boundaries sit a seeded
// jitter of up to a quarter chunk (4 KiB aligned) off the even split: sizes
// vary so the seed moves timing, while the IO count stays fixed.
std::vector<Chunk> SplitRegion(uint64_t region, uint64_t count,
                               rstore::Rng& rng) {
  const uint64_t even = region / count;
  const uint64_t jitter_pages = even / 4 / 4096;
  std::vector<uint64_t> cuts = {0};
  for (uint64_t i = 1; i < count; ++i) {
    const uint64_t j = rng.NextBelow(2 * jitter_pages + 1) * 4096;
    cuts.push_back(i * even + j - jitter_pages * 4096);
  }
  cuts.push_back(region);
  std::vector<Chunk> chunks;
  for (uint64_t i = 0; i < count; ++i) {
    chunks.push_back(Chunk{cuts[i], cuts[i + 1] - cuts[i]});
  }
  return chunks;
}

RoundResult RunStreamRw(const RoundConfig& config) {
  constexpr uint64_t region = 8ULL << 20;
  constexpr uint64_t slab = region / kStreamNodes;
  constexpr uint64_t chunks_per_pass = 64;
  const uint32_t write_passes = 4, read_passes = 4;

  core::ClusterConfig cfg;
  cfg.memory_servers = kStreamNodes;
  cfg.client_nodes = kStreamNodes;
  cfg.server_capacity = region + (8ULL << 20);
  cfg.master.slab_size = slab;
  cfg.seed = config.seed;
  Bench b(cfg, config.traced);

  struct ClientOut {
    LatencyHistogram read{1.04}, write{1.04};
    uint64_t ios = 0, failed = 0, mismatches = 0;
    sim::Nanos w0 = 0, w1 = 0, r0 = 0, r1 = 0;
    std::vector<std::string> errors;
  };
  std::vector<ClientOut> out(kStreamNodes);

  for (uint32_t c = 0; c < kStreamNodes; ++c) {
    b.cluster->SpawnClient(c, [&, c](core::RStoreClient& client) {
      ClientOut& o = out[c];
      const std::string name = "perfbench.stream" + std::to_string(c);
      if (!client.Ralloc(name, region).ok()) {
        return o.errors.push_back("stream ralloc failed");
      }
      auto mapped = client.Rmap(name);
      auto buf = client.AllocBuffer(kPipelinePasses * region);
      if (!mapped.ok() || !buf.ok()) {
        return o.errors.push_back("stream rmap/alloc failed");
      }
      core::MappedRegion& reg = **mapped;
      b.phase.ControlDone();
      rstore::Rng rng(SubSeed(config.seed, c));
      const std::vector<Chunk> chunks =
          SplitRegion(region, chunks_per_pass, rng);
      obs::Telemetry* tel = b.tel();
      const uint32_t node = client.device().node_id();

      struct Io {
        core::IoFuture future;
        sim::Nanos posted;
      };
      // Runs `passes` passes with kPipelinePasses in flight. `prepare`
      // fills a pass's buffer before it is posted; `finish` runs once all
      // of a pass's IOs completed.
      auto stream = [&](bool is_write, uint32_t passes, auto&& prepare,
                        auto&& finish) {
        std::vector<std::vector<Io>> inflight(kPipelinePasses);
        LatencyHistogram& hist = is_write ? o.write : o.read;
        auto drain = [&](uint32_t pass) {
          obs::ObsSpan span(tel, node, "perfbench",
                            is_write ? "core.write_wait" : "core.read_wait");
          for (Io& io : inflight[pass % kPipelinePasses]) {
            if (!io.future.Wait().ok()) ++o.failed;
            hist.Add(sim::Now() - io.posted);
          }
          inflight[pass % kPipelinePasses].clear();
          finish(pass);
        };
        for (uint32_t pass = 0; pass < passes; ++pass) {
          if (pass >= kPipelinePasses) drain(pass - kPipelinePasses);
          std::byte* base =
              buf->data.data() + (pass % kPipelinePasses) * region;
          prepare(pass, base);
          std::vector<size_t> order(chunks.size());
          for (size_t i = 0; i < order.size(); ++i) order[i] = i;
          for (size_t i = order.size(); i > 1; --i) {
            std::swap(order[i - 1], order[rng.NextBelow(i)]);
          }
          for (size_t i : order) {
            const Chunk& ch = chunks[i];
            std::span<std::byte> span(base + ch.offset, ch.bytes);
            auto f = is_write ? reg.WriteAsync(ch.offset, span)
                              : reg.ReadAsync(ch.offset, span);
            ++o.ios;
            if (!f.ok()) {
              ++o.failed;
              continue;
            }
            inflight[pass % kPipelinePasses].push_back(
                Io{std::move(*f), sim::Now()});
          }
        }
        for (uint32_t pass = passes > kPipelinePasses
                                 ? passes - kPipelinePasses
                                 : 0;
             pass < passes; ++pass) {
          drain(pass);
        }
      };

      (void)client.NotifyInc("perfbench.armed");
      (void)client.WaitNotify("perfbench.armed", kStreamNodes);
      b.phase.Begin(b.sim());
      o.w0 = sim::Now();
      stream(
          true, write_passes,
          [&](uint32_t pass, std::byte* base) {
            const uint64_t key = PatternKey(config.seed, c, pass);
            for (uint64_t i = 0; i + 8 <= region; i += 8) {
              const uint64_t w = PatternWord(key, i);
              std::memcpy(base + i, &w, 8);
            }
          },
          [](uint32_t) {});
      o.w1 = sim::Now();
      if (config.plant == Plant::kStreamWord && c == 0) {
        // Overwrite one stored word behind the pattern's back.
        const uint64_t bogus = ~PatternWord(
            PatternKey(config.seed, c, write_passes - 1), region / 2);
        std::memcpy(buf->data.data(), &bogus, 8);
        if (!reg.Write(region / 2, std::span(buf->data.data(), 8)).ok()) {
          ++o.failed;
        }
      }
      (void)client.NotifyInc("perfbench.written");
      (void)client.WaitNotify("perfbench.written", kStreamNodes);
      o.r0 = sim::Now();
      stream(
          false, read_passes, [](uint32_t, std::byte*) {},
          [&](uint32_t pass) {
            std::byte* base =
                buf->data.data() + (pass % kPipelinePasses) * region;
            o.mismatches += CountPatternMismatches(
                base, region, PatternKey(config.seed, c, write_passes - 1), 0);
          });
      o.r1 = sim::Now();
      b.phase.End(b.sim());
    });
  }
  b.sim().Run();

  RoundResult r;
  b.phase.Account(r);
  b.Fingerprint(r);
  LatencyHistogram all{1.04}, read{1.04}, write{1.04};
  sim::Nanos w0 = sim::kNever, w1 = 0, r0 = sim::kNever, r1 = 0;
  uint64_t mismatches = 0;
  for (const ClientOut& o : out) {
    r.errors.insert(r.errors.end(), o.errors.begin(), o.errors.end());
    read.Merge(o.read);
    write.Merge(o.write);
    r.attempted += o.ios;
    r.failed += o.failed;
    mismatches += o.mismatches;
    w0 = std::min(w0, o.w0);
    w1 = std::max(w1, o.w1);
    r0 = std::min(r0, o.r0);
    r1 = std::max(r1, o.r1);
  }
  all.Merge(read);
  all.Merge(write);
  if (mismatches > 0) {
    r.errors.push_back("stream read-back: " + std::to_string(mismatches) +
                       " words differ from the written pattern");
  }
  const double bytes_per_pass = static_cast<double>(kStreamNodes) * region;
  FillLatency(r, all, kStreamLimit);
  FillClosedLoopRates(r, CountWithin(all, kStreamLimit),
                      sim::ToSeconds((w1 - w0) + (r1 - r0)));
  // Read and write bandwidth over their own phases.
  Set(r.virt, "read_gbps",
      Ratio(bytes_per_pass * read_passes * 8, sim::ToSeconds(r1 - r0)) / 1e9);
  Set(r.virt, "write_gbps",
      Ratio(bytes_per_pass * write_passes * 8, sim::ToSeconds(w1 - w0)) /
          1e9);

  FillCommonLayers(r, b, r.usage, r.wall_s);
  Set(r.layer, "core.read_us", Us(read.Quantile(0.5)));
  Set(r.layer, "core.write_us", Us(write.Quantile(0.5)));
  return r;
}

}  // namespace

RoundResult RunRound(const RoundConfig& config) {
  switch (config.workload) {
    case Workload::kFaninRead:
      return RunFaninRead(config);
    case Workload::kKvUpdate:
      return RunKvUpdate(config);
    case Workload::kStreamRw:
      return RunStreamRw(config);
  }
  return {};
}

}  // namespace perfbench
