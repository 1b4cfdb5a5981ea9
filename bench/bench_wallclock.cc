// Wall-clock harness: how fast does the *simulator itself* run?
//
// Every other benchmark in this directory reports virtual time — the
// modelled cluster's performance. This one reports host time: it drives a
// fixed 12-server / 12-client saturation workload (streaming reads and
// writes, scattered vectored IO, remote atomics — the same primitives
// E1–E11 lean on) and measures how many scheduler events and simulated
// bytes the simulator core pushes through per real second. That is the
// number that bounds how large a workload any future experiment can
// afford, so it is tracked as a trajectory: the result is written to
// BENCH_wallclock.json for comparison across PRs.
//
// The workload is deterministic in virtual time (fixed seed; the
// determinism test in tests/ asserts as much), so runs are comparable:
// only the wall-clock denominator varies between hosts.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/log.h"
#include "core/cluster.h"
#include "sim/time.h"

namespace rstore::bench {
namespace {

struct WallclockResult {
  uint64_t events = 0;          // scheduler events dispatched
  uint64_t slices = 0;          // events that were OS thread handoffs
  uint64_t sim_bytes = 0;       // bytes moved through the fabric
  uint64_t virtual_nanos = 0;   // exact end-of-run virtual clock
  double virtual_seconds = 0;   // simulated time covered
  double wall_seconds = 0;      // host time spent
};

// One full cluster lifetime: build, run to quiescence, tear down. Setup
// and teardown are included — they are real simulator work (thread spawn
// and unwind) that any experiment pays too. The per-node partitions run on
// `host_threads` host workers (virtual time must not depend on the count —
// asserted in main).
WallclockResult RunSaturationWorkload(uint32_t host_threads) {
  constexpr uint32_t kMachines = 12;
  constexpr uint64_t kSlab = 1ULL << 20;            // 1 MiB striping
  constexpr uint64_t kRegionBytes = kMachines * kSlab;  // one slab/server
  constexpr int kStreamPasses = 6;
  constexpr int kScatterSegments = 64;
  constexpr uint64_t kScatterBytes = 4096;
  constexpr int kAtomicOps = 32;

  const auto t0 = std::chrono::steady_clock::now();  // NOLINT(rdet-wallclock) harness wall-time

  core::ClusterConfig cfg;
  cfg.memory_servers = kMachines;
  cfg.client_nodes = kMachines;
  cfg.server_capacity = kMachines * kSlab + (8ULL << 20);
  cfg.master.slab_size = kSlab;
  cfg.seed = 42;
  cfg.host_threads = host_threads;
  core::TestCluster cluster(cfg);

  for (uint32_t c = 0; c < kMachines; ++c) {
    cluster.SpawnClient(c, [c](core::RStoreClient& client) {
      const std::string name = "r" + std::to_string(c);
      if (!client.Ralloc(name, kRegionBytes).ok()) return;
      auto region = client.Rmap(name);
      if (!region.ok()) return;
      auto buf = client.AllocBuffer(kRegionBytes);
      if (!buf.ok()) return;

      // Streaming phase: overlapped full-region writes then reads, the
      // all-to-all that saturates every port (E3's shape).
      std::vector<core::IoFuture> futures;
      for (int pass = 0; pass < kStreamPasses; ++pass) {
        auto w = (*region)->WriteAsync(0, buf->data);
        if (!w.ok()) return;
        futures.push_back(std::move(*w));
      }
      for (auto& f : futures) (void)f.Wait();
      futures.clear();
      for (int pass = 0; pass < kStreamPasses; ++pass) {
        auto r = (*region)->ReadAsync(0, buf->data);
        if (!r.ok()) return;
        futures.push_back(std::move(*r));
      }
      for (auto& f : futures) (void)f.Wait();

      // Scatter phase: many small vectored segments striding the slab
      // table — the event-heavy small-message pattern (E9/E11's shape).
      std::vector<core::IoVec> segs(kScatterSegments);
      const uint64_t stride = kRegionBytes / kScatterSegments;
      for (int pass = 0; pass < 4; ++pass) {
        for (int s = 0; s < kScatterSegments; ++s) {
          segs[s] = {static_cast<uint64_t>(s) * stride,
                     buf->begin() + static_cast<uint64_t>(s) * stride,
                     kScatterBytes};
        }
        auto rv = (*region)->ReadV(segs);
        if (!rv.ok()) return;
        (void)rv->Wait();
        auto wv = (*region)->WriteV(segs);
        if (!wv.ok()) return;
        (void)wv->Wait();
      }

      // Atomic phase: contended FetchAdds on slab 0 (synchronization
      // primitives under Carafe barriers / RSort phase turns).
      for (int i = 0; i < kAtomicOps; ++i) {
        (void)(*region)->FetchAdd(0, 1);
      }
    });
  }
  cluster.sim().Run();

  WallclockResult r;
  r.slices = cluster.sim().thread_slices();
  r.events = cluster.sim().events_processed();
  r.sim_bytes = cluster.net().fabric().total_bytes();
  r.virtual_nanos = cluster.sim().NowNanos();
  r.virtual_seconds = sim::ToSeconds(cluster.sim().NowNanos());
  r.wall_seconds =
      // NOLINTNEXTLINE(rdet-wallclock): harness wall-time
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

}  // namespace
}  // namespace rstore::bench

int main() {
  rstore::SetLogLevel(rstore::LogLevel::kWarn);

#if defined(__GLIBC__)
  // Harness tuning: keep large malloc blocks (recv rings, staging
  // vectors) in the retained heap instead of mmap/munmap per cluster
  // lifetime, so repetitions after the first reuse warm pages rather
  // than re-faulting them. Affects measurement noise, not the simulator.
  (void)mallopt(M_MMAP_THRESHOLD, 256 << 20);
  (void)mallopt(M_TRIM_THRESHOLD, -1);
#endif

  // One untimed warmup rep faults in the pooled buffer mappings and the
  // allocator's retained heap, so every measured repetition sees the same
  // warm-memory conditions (the steady state any long experiment runs in).
  (void)rstore::bench::RunSaturationWorkload(1);

  // Best-of-N per worker count: the virtual-time work is identical each
  // repetition; the minimum wall time is the least-noisy estimate of
  // simulator speed. Virtual time must be bit-identical across worker
  // counts (the determinism claim); the wall-clock ratio is the parallel
  // speedup on this host. The one-worker row is the headline.
  const unsigned host_cores = std::thread::hardware_concurrency();
  constexpr int kReps = 3;
  constexpr uint32_t kThreadRows[] = {1, 8};
  rstore::bench::WallclockResult part[2];
  for (size_t t = 0; t < 2; ++t) {
    for (int i = 0; i < kReps; ++i) {
      auto r = rstore::bench::RunSaturationWorkload(kThreadRows[t]);
      std::printf("threads=%u rep %d: %.3fs wall, %" PRIu64
                  " events, %.2fM events/s, vtime %.6fs\n",
                  kThreadRows[t], i, r.wall_seconds, r.events,
                  static_cast<double>(r.events) / r.wall_seconds / 1e6,
                  r.virtual_seconds);
      if (part[t].wall_seconds == 0 ||
          r.wall_seconds < part[t].wall_seconds) {
        part[t] = r;
      }
    }
  }
  if (part[0].virtual_nanos != part[1].virtual_nanos ||
      part[0].events != part[1].events) {
    std::fprintf(stderr,
                 "FATAL: run diverged across host-thread counts: vnanos "
                 "%" PRIu64 " vs %" PRIu64 ", events %" PRIu64 " vs %" PRIu64
                 "\n",
                 part[0].virtual_nanos, part[1].virtual_nanos,
                 part[0].events, part[1].events);
    return 1;
  }
  const rstore::bench::WallclockResult& best = part[0];

  const double events_per_sec =
      static_cast<double>(best.events) / best.wall_seconds;
  const double sim_bytes_per_sec =
      static_cast<double>(best.sim_bytes) / best.wall_seconds;

  std::printf("\nwallclock harness (12x12 saturation workload)\n");
  std::printf("  events dispatched : %" PRIu64 "\n", best.events);
  std::printf("  thread slices     : %" PRIu64 "\n", best.slices);
  std::printf("  simulated bytes   : %" PRIu64 "\n", best.sim_bytes);
  std::printf("  virtual seconds   : %.6f\n", best.virtual_seconds);
  std::printf("  wall seconds      : %.3f\n", best.wall_seconds);
  std::printf("  events/sec        : %.3fM\n", events_per_sec / 1e6);
  std::printf("  sim bytes/sec     : %.1f MB/s\n", sim_bytes_per_sec / 1e6);
  std::printf("  host workers x%u   : %.3fs wall (%.2fx vs 1 worker)\n",
              kThreadRows[1], part[1].wall_seconds,
              best.wall_seconds / part[1].wall_seconds);

  // The tier-1 suite cannot be timed from inside one of its own build's
  // binaries; CI (or the operator) passes it in when known.
  double suite_seconds = 0;
  if (const char* env = std::getenv("RSTORE_TIER1_SUITE_SECONDS")) {
    suite_seconds = std::atof(env);
  }

  FILE* f = std::fopen("BENCH_wallclock.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"workload\": \"12x12 saturation (stream + scatter + "
                 "atomics)\",\n"
                 "  \"events_dispatched\": %" PRIu64 ",\n"
                 "  \"thread_slices\": %" PRIu64 ",\n"
                 "  \"simulated_bytes\": %" PRIu64 ",\n"
                 "  \"virtual_seconds\": %.6f,\n"
                 "  \"wall_seconds\": %.3f,\n"
                 "  \"events_per_sec\": %.0f,\n"
                 "  \"sim_bytes_per_real_sec\": %.0f,\n"
                 "  \"tier1_suite_seconds\": %.2f,\n"
                 "  \"host_cores\": %u,\n"
                 "  \"host_threads\": %u,\n"
                 "  \"workers_note\": \"speedup_vs_one_worker is only "
                 "meaningful when host_cores > host_threads; CI runners are "
                 "often 1-2 cores, where the epoch workers time-slice one "
                 "core and the row below measures overhead, not scaling\",\n"
                 "  \"workers\": [\n"
                 "    {\"host_threads\": %u, \"wall_seconds\": %.3f,\n"
                 "     \"events_per_sec\": %.0f,\n"
                 "     \"speedup_vs_one_worker\": %.3f}\n"
                 "  ],\n"
                 "  \"baseline_pre_batching\": {\n"
                 "    \"wall_seconds\": 0.688,\n"
                 "    \"events_dispatched\": 56424,\n"
                 "    \"sim_bytes_per_real_sec\": 2671900000,\n"
                 "    \"tier1_suite_seconds\": 12.70\n"
                 "  }\n"
                 "}\n",
                 best.events, best.slices, best.sim_bytes,
                 best.virtual_seconds, best.wall_seconds, events_per_sec,
                 sim_bytes_per_sec, suite_seconds, host_cores,
                 kThreadRows[0], kThreadRows[1], part[1].wall_seconds,
                 static_cast<double>(part[1].events) / part[1].wall_seconds,
                 best.wall_seconds / part[1].wall_seconds);
    std::fclose(f);
    std::printf("  wrote BENCH_wallclock.json\n");
  }
  return 0;
}
