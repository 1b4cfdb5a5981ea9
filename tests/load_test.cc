// Tests for src/load, the open-loop massive-fan-in serving stack:
// admission control (window / FIFO deferral / shed), workload vocabulary
// (YCSB mixes, arrival curves), session-to-QP multiplexing ratios, the
// LoadEngine state machines end to end on a small cluster, determinism
// across partitioned-scheduler host thread counts, rcheck cleanliness,
// coordinated-omission-safe latency anchoring under overload, rtrace
// per-op causal tracing (stage sums, slowest-K reservoir, probe-effect
// bit-identity), and the space-saving hot-key sketch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "check/check.h"
#include "check/lin.h"
#include "core/cluster.h"
#include "kv/kv.h"
#include "load/admission.h"
#include "load/engine.h"
#include "load/hotkeys.h"
#include "load/session_mux.h"
#include "load/workload.h"
#include "obs/rtrace.h"
#include "sim/time.h"

namespace rstore::load {
namespace {

using core::ClusterConfig;
using core::RStoreClient;
using core::TestCluster;

// ------------------------------------------------------------ Admission --
TEST(AdmissionTest, WindowDefersThenShedsAndReleasesFifo) {
  AdmissionController ac(/*servers=*/2, /*enabled=*/true,
                         /*window_per_server=*/2, /*max_deferred=*/2);
  EXPECT_EQ(ac.TryAdmit(0, 10), Admit::kAdmit);
  EXPECT_EQ(ac.TryAdmit(0, 11), Admit::kAdmit);
  EXPECT_EQ(ac.TryAdmit(0, 12), Admit::kDefer);
  EXPECT_EQ(ac.TryAdmit(0, 13), Admit::kDefer);
  EXPECT_EQ(ac.TryAdmit(0, 14), Admit::kShed);
  EXPECT_EQ(ac.inflight(0), 2u);
  EXPECT_EQ(ac.deferred(0), 2u);
  // Server 1 is an independent window.
  EXPECT_EQ(ac.TryAdmit(1, 20), Admit::kAdmit);
  // Releases re-admit deferred sessions in FIFO order, keeping the
  // in-flight count at the window.
  EXPECT_EQ(ac.Release(0), 12);
  EXPECT_EQ(ac.inflight(0), 2u);
  EXPECT_EQ(ac.Release(0), 13);
  EXPECT_EQ(ac.Release(0), -1);
  EXPECT_EQ(ac.inflight(0), 1u);
  EXPECT_EQ(ac.stats().admitted, 3u);
  EXPECT_EQ(ac.stats().deferred, 2u);
  EXPECT_EQ(ac.stats().shed, 1u);
  EXPECT_EQ(ac.stats().inflight_high_water, 2u);
  EXPECT_EQ(ac.stats().deferred_high_water, 2u);
}

TEST(AdmissionTest, DisabledPassesThroughButStillTracks) {
  AdmissionController ac(1, /*enabled=*/false, /*window_per_server=*/1,
                         /*max_deferred=*/1);
  for (uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(ac.TryAdmit(0, s), Admit::kAdmit);
  }
  EXPECT_EQ(ac.inflight(0), 8u);
  EXPECT_EQ(ac.stats().inflight_high_water, 8u);
  EXPECT_EQ(ac.stats().deferred, 0u);
  EXPECT_EQ(ac.stats().shed, 0u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(ac.Release(0), -1);
  EXPECT_TRUE(ac.idle());
}

// ------------------------------------------------------------- Workload --
TEST(WorkloadMixTest, PickTracksNamedMixFractions) {
  Rng rng(3);
  const WorkloadMix a = WorkloadMix::Ycsb('a');
  int reads = 0, updates = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const OpType op = a.Pick(rng);
    if (op == OpType::kRead) ++reads;
    if (op == OpType::kUpdate) ++updates;
  }
  EXPECT_EQ(reads + updates, kDraws);  // A is read/update only
  EXPECT_NEAR(reads, kDraws / 2, kDraws / 20);

  const WorkloadMix e = WorkloadMix::Ycsb('e');
  int scans = 0, inserts = 0;
  for (int i = 0; i < kDraws; ++i) {
    const OpType op = e.Pick(rng);
    if (op == OpType::kScan) ++scans;
    if (op == OpType::kInsert) ++inserts;
  }
  EXPECT_EQ(scans + inserts, kDraws);
  EXPECT_NEAR(scans, kDraws * 95 / 100, kDraws / 20);
}

TEST(ArrivalCurveTest, ShapesModulateThePeakRate) {
  const double peak = 1e6;
  const sim::Nanos window = sim::Millis(10);
  ArrivalCurve constant;
  EXPECT_DOUBLE_EQ(constant.RateAt(peak, 0, window), peak);
  EXPECT_DOUBLE_EQ(constant.RateAt(peak, window / 2, window), peak);

  ArrivalCurve ramp;
  ramp.shape = ArrivalShape::kRamp;
  ramp.ramp_start_fraction = 0.1;
  EXPECT_NEAR(ramp.RateAt(peak, 0, window), 0.1 * peak, 1e-6 * peak);
  EXPECT_NEAR(ramp.RateAt(peak, window, window), peak, 1e-6 * peak);
  EXPECT_LT(ramp.RateAt(peak, window / 4, window),
            ramp.RateAt(peak, window / 2, window));

  ArrivalCurve burst;
  burst.shape = ArrivalShape::kBurst;
  burst.burst_period = sim::Millis(1);
  burst.burst_duty = 0.2;
  burst.burst_multiplier = 3.0;
  burst.base_fraction = 0.5;
  // Inside the first 20% of a period: multiplied; after: base fraction.
  EXPECT_DOUBLE_EQ(burst.RateAt(peak, sim::Micros(100), window), 3.0 * peak);
  EXPECT_DOUBLE_EQ(burst.RateAt(peak, sim::Micros(600), window), 0.5 * peak);
}

// ----------------------------------------------------------- SessionMux --
TEST(SessionMuxTest, ConnectsBoundedPoolAndPinsSessionsToOneQp) {
  // QpIndexFor is the FIFO guarantee: a session's ops to one server must
  // ride one RC QP (post order == completion order on an RC QP). Connect
  // a real pool inside a cluster and pin the mapping and pool size.
  constexpr uint32_t kQpPerServer = 2, kSessions = 1000;
  core::ClusterConfig cfg;
  cfg.memory_servers = 4;
  cfg.client_nodes = 1;
  cfg.server_capacity = 16ULL << 20;
  core::TestCluster cluster(cfg);
  std::vector<uint32_t> servers;
  for (uint32_t i = 0; i < cfg.memory_servers; ++i) {
    servers.push_back(cluster.server_node(i).id());
  }
  cluster.RunClient([&](RStoreClient& client) {
    SessionMux mux(client.device());
    ASSERT_TRUE(mux.Connect(servers, kQpPerServer).ok());
    // Bounded pool: exactly qp_per_server QPs per memory server.
    ASSERT_EQ(mux.qp_count(), cfg.memory_servers * kQpPerServer);
    for (uint32_t server = 0; server < cfg.memory_servers; ++server) {
      for (uint32_t s = 0; s < kSessions; ++s) {
        const uint32_t qp = mux.QpIndexFor(server, s);
        // Stable: the same (server, session) always lands on the same QP.
        EXPECT_EQ(qp, mux.QpIndexFor(server, s));
        // And inside that server's QP block.
        EXPECT_GE(qp, server * kQpPerServer);
        EXPECT_LT(qp, (server + 1) * kQpPerServer);
      }
    }
  });
  // 1000 sessions over 2 QPs per server = 500:1 per (server, engine).
  EXPECT_GE(kSessions / kQpPerServer, 100u);
}

// ----------------------------------------------------------- LoadEngine --
ClusterConfig SmallCluster(uint32_t host_threads = 0) {
  ClusterConfig cfg;
  cfg.memory_servers = 4;
  cfg.client_nodes = 1;
  cfg.server_capacity = 16ULL << 20;
  cfg.master.slab_size = 1ULL << 20;
  cfg.host_threads = host_threads;
  return cfg;
}

LoadOptions SmallOptions() {
  LoadOptions o;
  o.sessions = 64;
  o.offered_load = 100e3;
  o.duration = sim::Millis(2);
  o.preload_keys = 1024;
  o.mix = WorkloadMix::Ycsb('a');
  o.seed = 5;
  return o;
}

struct RunResult {
  EngineStats stats;
  uint64_t virtual_nanos = 0;
};

RunResult RunEngine(const LoadOptions& opts, uint32_t host_threads = 0,
                    check::Checker* checker = nullptr) {
  TestCluster cluster(SmallCluster(host_threads));
  if (checker != nullptr) cluster.sim().AttachChecker(checker);
  RunResult r;
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(LoadEngine::PreloadTable(client, "t", opts).ok());
    LoadEngine engine(client, "t", opts, 0, 1);
    ASSERT_TRUE(engine.Run().ok());
    r.stats = engine.stats();
  });
  r.virtual_nanos = cluster.sim().NowNanos();
  return r;
}

TEST(LoadEngineTest, SmokeCompletesEveryArrivalAtLowLoad) {
  const RunResult r = RunEngine(SmallOptions());
  EXPECT_GT(r.stats.arrivals, 100u);
  EXPECT_EQ(r.stats.completed, r.stats.arrivals);
  EXPECT_EQ(r.stats.errors, 0u);
  EXPECT_EQ(r.stats.shed, 0u);
  EXPECT_EQ(r.stats.latency.count(), r.stats.completed);
  // Bounded QP pool: qp_per_server QPs per server that actually holds a
  // slab of the table (placement decides how many that is), never one
  // per session.
  EXPECT_GE(r.stats.qps, 2u);
  EXPECT_EQ(r.stats.qps % 2, 0u);
  EXPECT_LT(r.stats.qps, r.stats.sessions);
  EXPECT_EQ(r.stats.sessions, 64u);
  // Doorbell chains carry more than one WR on average once sessions
  // batch within a scheduling round.
  EXPECT_GT(r.stats.mux.wrs_posted, 0u);
  EXPECT_GE(r.stats.mux.wrs_posted, r.stats.mux.chains_posted);
}

TEST(LoadEngineTest, VirtualTimeIsBitIdenticalAcrossHostThreads) {
  LoadOptions opts = SmallOptions();
  opts.offered_load = 400e3;  // some queueing, so ordering is stressed
  const RunResult ref = RunEngine(opts, 1);
  for (uint32_t threads : {2u, 4u}) {
    const RunResult part = RunEngine(opts, threads);
    EXPECT_EQ(part.virtual_nanos, ref.virtual_nanos)
        << "host_threads=" << threads;
    EXPECT_EQ(part.stats.completed, ref.stats.completed);
    EXPECT_EQ(part.stats.retries, ref.stats.retries);
    EXPECT_EQ(part.stats.latency.Quantile(0.999),
              ref.stats.latency.Quantile(0.999));
  }
}

TEST(LoadEngineTest, RcheckCleanUnderContention) {
  LoadOptions opts = SmallOptions();
  opts.offered_load = 400e3;
  check::Checker checker;
  const RunResult r = RunEngine(opts, 0, &checker);
  EXPECT_GT(r.stats.completed, 0u);
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().size() << " violations";
}

TEST(LoadEngineTest, OverloadShedsAndAdmissionBoundsCompletedTail) {
  LoadOptions opts = SmallOptions();
  opts.offered_load = 4e6;  // far past what 64 sessions can serve
  opts.shed_deadline = sim::Millis(1);
  const RunResult admit = RunEngine(opts);
  EXPECT_GT(admit.stats.shed, 0u);
  EXPECT_LT(admit.stats.completed, admit.stats.arrivals);
  // The in-flight window held.
  EXPECT_LE(admit.stats.admission.inflight_high_water,
            opts.window_per_server);

  LoadOptions open = opts;
  open.admission = false;
  const RunResult noadm = RunEngine(open);
  EXPECT_EQ(noadm.stats.shed, 0u);
  // The whole point of admission + deadline shed: the tail of *completed*
  // ops stays bounded while the uncontrolled arm's tail diverges with
  // the backlog.
  EXPECT_LT(admit.stats.latency.Quantile(0.999),
            noadm.stats.latency.Quantile(0.999));
}

TEST(LoadEngineTest, LatencyAnchorsAtIntendedTimeUnderBacklog) {
  // Coordinated-omission safety: with no admission control and heavy
  // overload, ops that arrived mid-window drain at the end — their
  // recorded latency must include the backlog wait from the *intended*
  // send time, so the max observed latency spans a large fraction of
  // the window even though per-op service time is microseconds.
  LoadOptions opts = SmallOptions();
  opts.offered_load = 4e6;
  opts.admission = false;
  const RunResult r = RunEngine(opts);
  EXPECT_GT(r.stats.completed, 0u);
  EXPECT_GT(r.stats.latency.max(),
            static_cast<uint64_t>(opts.duration) / 2);
}

TEST(LoadEngineTest, ChainWidthAdaptsToLoad) {
  // Load-adaptive doorbell batching: a busier engine processes more
  // arrivals and completions per scheduling round, so its flushes post
  // wider chains.
  LoadOptions low = SmallOptions();
  low.offered_load = 50e3;
  LoadOptions high = SmallOptions();
  high.offered_load = 2e6;
  const RunResult l = RunEngine(low);
  const RunResult h = RunEngine(high);
  const double lw = static_cast<double>(l.stats.mux.wrs_posted) /
                    static_cast<double>(l.stats.mux.chains_posted);
  const double hw = static_cast<double>(h.stats.mux.wrs_posted) /
                    static_cast<double>(h.stats.mux.chains_posted);
  EXPECT_GT(hw, lw);
}

// --------------------------------------------------------------- rtrace --
TEST(LoadEngineTest, RtraceStageSumsEqualTotalForEveryOp) {
  // The tentpole invariant: every op's per-stage nanoseconds sum to its
  // coordinated-omission-anchored end-to-end latency, exactly.
  LoadOptions opts = SmallOptions();
  opts.rtrace.mode = obs::RtraceMode::kFull;
  const RunResult r = RunEngine(opts);
  const obs::RtraceReport& tr = r.stats.rtrace;
  EXPECT_EQ(tr.ops, r.stats.completed);
  EXPECT_EQ(tr.sum_mismatches, 0u);
  uint64_t stage_total = 0;
  for (const uint64_t v : tr.stage_ns_sum) stage_total += v;
  EXPECT_EQ(stage_total, tr.total_ns_sum);
  // kFull keeps a record for every completed op; re-check per op.
  ASSERT_EQ(tr.kept.size(), tr.ops);
  for (const obs::RtraceOp& op : tr.kept) {
    uint64_t sum = 0;
    for (const uint64_t v : op.stage_ns) sum += v;
    EXPECT_EQ(sum, op.total_ns()) << "op " << op.op_id;
  }
  // The rtrace totals are the same numbers the latency histogram pins.
  EXPECT_EQ(tr.total_hist.count(), r.stats.latency.count());
  EXPECT_EQ(tr.total_hist.max(), r.stats.latency.max());
}

TEST(LoadEngineTest, RtraceReservoirRetainsTheTrueSlowestOp) {
  // With head sampling effectively disabled, only the slowest-K reservoir
  // keeps records — and it must never lose the true maximum.
  LoadOptions opts = SmallOptions();
  opts.offered_load = 2e6;  // overload: a long backlog tail
  opts.admission = false;
  opts.rtrace.mode = obs::RtraceMode::kSampled;
  opts.rtrace.sample_period = 1u << 20;
  opts.rtrace.reservoir_k = 4;
  const RunResult r = RunEngine(opts);
  const obs::RtraceReport& tr = r.stats.rtrace;
  ASSERT_FALSE(tr.kept.empty());
  EXPECT_LE(tr.kept.size(), 4u + 1u);  // reservoir + the op_seq 0 head keep
  uint64_t kept_max = 0;
  for (const obs::RtraceOp& op : tr.kept) {
    kept_max = std::max(kept_max, op.total_ns());
  }
  EXPECT_EQ(kept_max, r.stats.latency.max());
}

TEST(LoadEngineTest, RtraceModesAreProbeFree) {
  // The probe-effect contract: rtrace off / sampled / full land on the
  // same virtual end time, on one host worker and on several.
  LoadOptions opts = SmallOptions();
  opts.offered_load = 400e3;
  opts.rtrace.mode = obs::RtraceMode::kOff;
  const RunResult ref = RunEngine(opts, 1);
  for (const obs::RtraceMode mode :
       {obs::RtraceMode::kOff, obs::RtraceMode::kSampled,
        obs::RtraceMode::kFull}) {
    for (const uint32_t threads : {1u, 2u}) {
      if (mode == obs::RtraceMode::kOff && threads == 1) continue;
      LoadOptions o = opts;
      o.rtrace.mode = mode;
      const RunResult r = RunEngine(o, threads);
      EXPECT_EQ(r.virtual_nanos, ref.virtual_nanos)
          << "mode=" << obs::ToString(mode) << " threads=" << threads;
      EXPECT_EQ(r.stats.completed, ref.stats.completed);
      EXPECT_EQ(r.stats.latency.Quantile(0.999),
                ref.stats.latency.Quantile(0.999));
    }
  }
}

TEST(LoadEngineTest, RcheckCleanWithFullTracing) {
  LoadOptions opts = SmallOptions();
  opts.offered_load = 400e3;
  opts.rtrace.mode = obs::RtraceMode::kFull;
  check::Checker checker;
  const RunResult r = RunEngine(opts, 0, &checker);
  EXPECT_GT(r.stats.rtrace.ops, 0u);
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().size() << " violations";
}

// -------------------------------------------------------------- hotkeys --
TEST(SpaceSavingTest, TracksHeavyHitterWithErrorBound) {
  SpaceSaving sketch(4);
  // 100 hits on key 7 interleaved with 60 distinct singletons that churn
  // the other counters.
  for (uint64_t i = 0; i < 60; ++i) {
    sketch.Offer(7);
    if (i % 3 == 0) sketch.Offer(7);
    sketch.Offer(1000 + i);
  }
  const std::vector<HotKey> top = sketch.TopK();
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].key_id, 7u);
  // Space-saving bounds: count overestimates by at most `error`.
  EXPECT_GE(top[0].count, 80u);
  EXPECT_LE(top[0].count - top[0].error, 80u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(top[i].count, top[i - 1].count);  // sorted by count
  }
}

TEST(LoadEngineTest, HotKeysSurfaceTheZipfHead) {
  const RunResult r = RunEngine(SmallOptions());
  ASSERT_FALSE(r.stats.hotkeys.empty());
  const HotKey& top = r.stats.hotkeys[0];
  // The zipf head is far above the uniform share even after subtracting
  // the sketch's worst-case overestimate.
  EXPECT_GT(top.count - top.error, r.stats.arrivals / 1024);
  for (size_t i = 1; i < r.stats.hotkeys.size(); ++i) {
    EXPECT_LE(r.stats.hotkeys[i].count, r.stats.hotkeys[i - 1].count);
  }
}

// Both dataplanes run one slot protocol: after a contended YCSB-A run of
// the asynchronous engine, the blocking KvStore reads every preloaded key,
// a raw scan of the table finds each key in exactly one slot, and rlin
// finds the two dataplanes' combined history linearizable.
TEST(LoadEngineTest, KvStoreReadsTheTableAnEngineRunLeft) {
  LoadOptions opts = SmallOptions();
  opts.offered_load = 400e3;
  TestCluster cluster(SmallCluster());
  check::LinChecker lin;
  cluster.sim().AttachLinChecker(&lin);
  cluster.RunClient([&](RStoreClient& client) {
    ASSERT_TRUE(LoadEngine::PreloadTable(client, "t", opts).ok());
    LoadEngine engine(client, "t", opts, 0, 1);
    ASSERT_TRUE(engine.Run().ok());
    EXPECT_GT(engine.stats().retries, 0u);  // the conflict paths ran

    auto kv = kv::KvStore::Open(client, "t");
    ASSERT_TRUE(kv.ok()) << kv.status();
    for (uint64_t id = 0; id < opts.preload_keys; ++id) {
      std::byte key[8];
      LoadEngine::EncodeKey(id, key);
      auto got = (*kv)->Get(
          std::string_view(reinterpret_cast<const char*>(key), sizeof(key)));
      ASSERT_TRUE(got.ok()) << "key " << id << ": " << got.status();
      EXPECT_EQ(got->size(), opts.value_bytes);
    }

    const kv::KvOptions& table = (*kv)->options();
    auto region = client.Rmap("t");
    ASSERT_TRUE(region.ok());
    auto slots = client.AllocBuffer(table.buckets * table.slot_bytes);
    ASSERT_TRUE(slots.ok());
    ASSERT_TRUE(
        (*region)->Read(kv::SlotLayout::kHeaderBytes, slots->data).ok());
    std::vector<uint32_t> copies(opts.preload_keys, 0);
    for (uint64_t slot = 0; slot < table.buckets; ++slot) {
      const kv::SlotView view =
          kv::SlotLayout::Parse(slots->begin() + slot * table.slot_bytes);
      if (view.key.empty()) continue;
      ASSERT_EQ(view.key.size(), 8u) << "slot " << slot;
      uint64_t id = 0;
      std::memcpy(&id, view.key.data(), sizeof(id));
      ASSERT_LT(id, opts.preload_keys) << "slot " << slot;
      ++copies[id];
    }
    for (uint64_t id = 0; id < opts.preload_keys; ++id) {
      EXPECT_EQ(copies[id], 1u) << "key " << id;
    }
  });
  lin.Finalize();
  EXPECT_GT(lin.op_count(), opts.preload_keys);
  EXPECT_EQ(lin.violation_count(), 0u);
}

TEST(LoadEngineTest, InsertScanAndRmwMixesComplete) {
  for (const char mix : {'d', 'e', 'f'}) {
    LoadOptions opts = SmallOptions();
    opts.mix = WorkloadMix::Ycsb(mix);
    const RunResult r = RunEngine(opts);
    EXPECT_GT(r.stats.completed, 0u) << "mix=" << mix;
    EXPECT_EQ(r.stats.errors, 0u) << "mix=" << mix;
    const auto& by_type = r.stats.completed_by_type;
    if (mix == 'd') {
      EXPECT_GT(by_type[static_cast<uint32_t>(OpType::kInsert)], 0u);
    } else if (mix == 'e') {
      EXPECT_GT(by_type[static_cast<uint32_t>(OpType::kScan)], 0u);
      EXPECT_GT(by_type[static_cast<uint32_t>(OpType::kInsert)], 0u);
    } else {
      EXPECT_GT(by_type[static_cast<uint32_t>(OpType::kReadModifyWrite)],
                0u);
    }
  }
}

}  // namespace
}  // namespace rstore::load
