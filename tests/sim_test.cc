// Unit tests for the virtual-time simulator: clock behaviour, cooperative
// scheduling determinism, condition variables, failure injection, and the
// CPU/disk cost models.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "explore/policy.h"
#include "sim/cost_model.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace rstore::sim {
namespace {

TEST(TimeTest, Literals) {
  EXPECT_EQ(Micros(1.3), 1300u);
  EXPECT_EQ(Millis(2), 2'000'000u);
  EXPECT_EQ(Seconds(1), 1'000'000'000u);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(31.7)), 31.7);
}

TEST(TimeTest, TransferTimeRoundsUpAndNeverZero) {
  EXPECT_EQ(TransferTime(0, 1e9), 0u);
  EXPECT_GE(TransferTime(1, 1e12), 1u);  // sub-ns rounds up to 1
  // 1 GiB at 8 Gb/s = 2^30 bytes * 8 / 8e9 s ≈ 1.0737 s.
  EXPECT_NEAR(ToSeconds(TransferTime(1ULL << 30, 8e9)), 1.0737, 0.001);
}

TEST(SimulationTest, SleepAdvancesVirtualClock) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  Nanos observed = 0;
  n.Spawn("main", [&] {
    EXPECT_EQ(Now(), 0u);
    Sleep(Micros(5));
    observed = Now();
  });
  sim.Run();
  EXPECT_EQ(observed, Micros(5));
  EXPECT_EQ(sim.NowNanos(), Micros(5));
}

TEST(SimulationTest, ComputeIsInstantInVirtualTime) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  n.Spawn("main", [&] {
    volatile uint64_t x = 0;
    for (int i = 0; i < 100000; ++i) x = x + static_cast<uint64_t>(i);
    EXPECT_EQ(Now(), 0u);  // pure compute costs nothing unless charged
  });
  sim.Run();
}

TEST(SimulationTest, ThreadsInterleaveDeterministically) {
  // Two runs with the same seed produce the same interleaving. The trace
  // is ONE host vector shared by threads on three nodes: the global order
  // of same-instant pushes from different partitions is defined only
  // when one worker dispatches (virtual time is deterministic either way),
  // so pin host_threads = 1 for the multi-worker gate.
  auto run = [] {
    Simulation sim(SimConfig{.seed = 77, .host_threads = 1});
    std::vector<std::string> trace;
    for (int i = 0; i < 3; ++i) {
      Node& n = sim.AddNode("n" + std::to_string(i));
      n.Spawn("w", [&trace, i] {
        for (int k = 0; k < 3; ++k) {
          Sleep(Micros(10 * (i + 1)));
          trace.push_back("n" + std::to_string(i) + ":" + std::to_string(k));
        }
      });
    }
    sim.Run();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(SimulationTest, SameInstantEventsRunInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.At(100, [&] { order.push_back(1); });
  sim.At(100, [&] { order.push_back(2); });
  sim.At(50, [&] { order.push_back(0); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// THE equal-vtime tie-break rule, documented on Event in sim/simulation.h:
// events at one virtual instant dispatch in FIFO order of *scheduling* —
// each partition's heap orders by (t, seq) and thread wakes and plain
// callbacks share the partition's seq counter, so kind never matters.
// Cross-partition wakes merge at the epoch barrier instead, behind the
// source partition's same-instant work. The baseline exploration policy
// must preserve exactly these orders (its pick 0 *is* this order).
TEST(SimulationTest, SameInstantEventsDispatchInFifoOrder) {
  // A callback at t=100 interleaves thread wakes with plain callbacks at
  // the same instant: wake(w0), cb(0), wake(w1), cb(1). `on_node` runs it
  // on node "a"'s partition, where the waiters live; otherwise it runs on
  // the driver's partition 0.
  auto run = [](explore::SchedulePolicy* policy, bool on_node) {
    Simulation sim;
    if (policy != nullptr) sim.AttachPolicy(policy);
    Node& n = sim.AddNode("a");
    CondVar cv(sim);
    std::vector<int> order;
    for (int i = 0; i < 2; ++i) {
      n.Spawn("waiter", [&, i] {
        cv.Wait();
        order.push_back(10 + i);
      });
    }
    auto interleave = [&] {
      cv.NotifyOne();
      sim.At(100, [&] { order.push_back(0); });
      cv.NotifyOne();
      sim.At(100, [&] { order.push_back(1); });
    };
    if (on_node) {
      sim.PostToNode(n.id(), 100, interleave);
    } else {
      sim.At(100, interleave);
    }
    sim.Run();
    return order;
  };
  // One partition: one seq counter, FIFO across kinds.
  const std::vector<int> same_partition{10, 0, 11, 1};
  // The driver's callbacks finish the instant on partition 0 before the
  // wakes merge into node "a"'s queue at the epoch barrier.
  const std::vector<int> cross_partition{0, 1, 10, 11};
  EXPECT_EQ(run(nullptr, true), same_partition);
  EXPECT_EQ(run(nullptr, false), cross_partition);
  explore::BaselinePolicy baseline;
  EXPECT_EQ(run(&baseline, true), same_partition);
  EXPECT_EQ(run(&baseline, false), cross_partition);
}

// RSTORE_HOST_THREADS sets the worker count when SimConfig leaves it 0.
// Values that are not a positive integer are reported and mean 1.
TEST(SimulationTest, HostThreadsEnvIsValidated) {
  std::string saved;
  const char* prev = std::getenv("RSTORE_HOST_THREADS");
  if (prev != nullptr) saved = prev;
  auto resolve = [](const char* value, std::string* err) {
    setenv("RSTORE_HOST_THREADS", value, /*overwrite=*/1);
    testing::internal::CaptureStderr();
    const uint32_t n = Simulation().host_threads();
    *err = testing::internal::GetCapturedStderr();
    return n;
  };
  std::string err;
  for (const char* bad : {"abc", "0", "-2", "3x", " "}) {
    EXPECT_EQ(resolve(bad, &err), 1u) << "'" << bad << "'";
    EXPECT_NE(err.find("RSTORE_HOST_THREADS"), std::string::npos)
        << "'" << bad << "'";
  }
  EXPECT_EQ(resolve("3", &err), 3u);
  EXPECT_EQ(err, "");
  EXPECT_EQ(resolve("", &err), 1u);
  EXPECT_EQ(err, "");
  // An explicit worker count ignores the environment.
  setenv("RSTORE_HOST_THREADS", "abc", /*overwrite=*/1);
  EXPECT_EQ(Simulation(SimConfig{.host_threads = 2}).host_threads(), 2u);
  if (prev != nullptr) {
    setenv("RSTORE_HOST_THREADS", saved.c_str(), /*overwrite=*/1);
  } else {
    unsetenv("RSTORE_HOST_THREADS");
  }
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  int steps = 0;
  n.Spawn("main", [&] {
    for (int i = 0; i < 10; ++i) {
      Sleep(Millis(1));
      ++steps;
    }
  });
  sim.RunUntil(Millis(3));
  EXPECT_EQ(steps, 3);
  EXPECT_EQ(sim.NowNanos(), Millis(3));
  sim.Run();
  EXPECT_EQ(steps, 10);
}

TEST(SimulationTest, YieldRunsAfterAlreadyQueuedEvents) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  std::vector<int> order;
  n.Spawn("first", [&] {
    order.push_back(1);
    Yield();
    order.push_back(3);
  });
  n.Spawn("second", [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationTest, SpawnFromInsideThread) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  bool child_ran = false;
  n.Spawn("parent", [&] {
    Sleep(Micros(1));
    CurrentNode().Spawn("child", [&] { child_ran = true; });
  });
  sim.Run();
  EXPECT_TRUE(child_ran);
  EXPECT_EQ(sim.live_thread_count(), 0u);
}

// -------------------------------------------------------------- CondVar --
TEST(CondVarTest, NotifyOneWakesSingleWaiter) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  CondVar cv(sim);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    n.Spawn("waiter", [&] {
      cv.Wait();
      ++woken;
    });
  }
  n.Spawn("notifier", [&] {
    Sleep(Micros(10));
    cv.NotifyOne();
    Sleep(Micros(10));
    cv.NotifyAll();
  });
  sim.RunUntil(Micros(15));
  EXPECT_EQ(woken, 1);
  sim.Run();
  EXPECT_EQ(woken, 3);
}

TEST(CondVarTest, WaitForTimesOut) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  CondVar cv(sim);
  bool notified = true;
  Nanos end = 0;
  n.Spawn("waiter", [&] {
    notified = cv.WaitFor(Micros(50));
    end = Now();
  });
  sim.Run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(end, Micros(50));
}

TEST(CondVarTest, WaitForReturnsTrueOnNotify) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  CondVar cv(sim);
  bool notified = false;
  Nanos end = 0;
  n.Spawn("waiter", [&] {
    notified = cv.WaitFor(Micros(50));
    end = Now();
  });
  n.Spawn("notifier", [&] {
    Sleep(Micros(10));
    cv.NotifyOne();
  });
  sim.Run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(end, Micros(10));
}

TEST(CondVarTest, StaleTimeoutAfterNotifyIsIgnored) {
  // Thread is notified before its timeout; the later timeout event must
  // not wake the thread's *next* wait.
  Simulation sim;
  Node& n = sim.AddNode("a");
  CondVar cv(sim);
  std::vector<Nanos> wakes;
  n.Spawn("waiter", [&] {
    EXPECT_TRUE(cv.WaitFor(Micros(100)));
    wakes.push_back(Now());
    cv.Wait();  // must not be woken by the stale 100us timeout
    wakes.push_back(Now());
  });
  n.Spawn("notifier", [&] {
    Sleep(Micros(10));
    cv.NotifyOne();
    Sleep(Millis(1));
    cv.NotifyOne();
  });
  sim.Run();
  ASSERT_EQ(wakes.size(), 2u);
  EXPECT_EQ(wakes[0], Micros(10));
  EXPECT_EQ(wakes[1], Micros(10) + Millis(1));
}

TEST(CondVarTest, WaitUntilForPredicate) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  CondVar cv(sim);
  int value = 0;
  bool ok = false;
  n.Spawn("waiter", [&] {
    ok = cv.WaitUntilFor([&] { return value == 3; }, Millis(10));
  });
  n.Spawn("producer", [&] {
    for (int i = 1; i <= 3; ++i) {
      Sleep(Micros(100));
      value = i;
      cv.NotifyAll();
    }
  });
  sim.Run();
  EXPECT_TRUE(ok);
}

TEST(CondVarTest, WaitUntilForTimesOutWhenPredicateNeverTrue) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  CondVar cv(sim);
  bool ok = true;
  Nanos end = 0;
  n.Spawn("waiter", [&] {
    ok = cv.WaitUntilFor([] { return false; }, Millis(2));
    end = Now();
  });
  sim.Run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(end, Millis(2));
}

// ----------------------------------------------------- Failure injection --
TEST(KillTest, BlockedThreadsUnwindWithRaii) {
  Simulation sim;
  Node& victim = sim.AddNode("victim");
  Node& killer = sim.AddNode("killer");
  CondVar cv(sim);
  bool cleaned_up = false;
  victim.Spawn("server", [&] {
    struct Guard {
      bool* flag;
      ~Guard() { *flag = true; }
    } guard{&cleaned_up};
    cv.Wait();  // blocks forever; killed mid-wait
    FAIL() << "should never wake normally";
  });
  killer.Spawn("killer", [&] {
    Sleep(Micros(5));
    CurrentNode().sim().KillNode(victim.id());
  });
  sim.Run();
  EXPECT_TRUE(cleaned_up);
  EXPECT_FALSE(victim.alive());
  EXPECT_EQ(victim.live_threads(), 0u);
}

TEST(KillTest, RunningThreadDiesAtNextBlockingCall) {
  Simulation sim;
  Node& victim = sim.AddNode("victim");
  int phase = 0;
  victim.Spawn("worker", [&] {
    phase = 1;
    CurrentNode().sim().KillNode(CurrentNode().id());  // self-kill
    phase = 2;      // still runs: kill takes effect at next yield
    Sleep(Micros(1));  // throws ThreadKilled
    phase = 3;
  });
  sim.Run();
  EXPECT_EQ(phase, 2);
}

TEST(KillTest, KillIsIdempotent) {
  Simulation sim;
  Node& victim = sim.AddNode("victim");
  victim.Spawn("w", [&] { Sleep(Seconds(100)); });
  sim.KillNode(victim.id());
  sim.KillNode(victim.id());
  sim.Run();
  EXPECT_EQ(victim.live_threads(), 0u);
}

TEST(KillTest, SleepingThreadKilledBeforeWake) {
  Simulation sim;
  Node& victim = sim.AddNode("victim");
  bool woke_normally = false;
  victim.Spawn("sleeper", [&] {
    Sleep(Seconds(10));
    woke_normally = true;
  });
  sim.After(Millis(1), [&] { sim.KillNode(victim.id()); });
  sim.Run();
  EXPECT_FALSE(woke_normally);
  // Clock must not have jumped to the 10s wake.
  EXPECT_LT(sim.NowNanos(), Seconds(1));
}

TEST(ShutdownTest, DestructorUnwindsBlockedThreads) {
  bool cleaned_up = false;
  {
    Simulation sim;
    Node& n = sim.AddNode("a");
    auto cv = std::make_shared<CondVar>(sim);
    n.Spawn("waiter", [&cleaned_up, cv] {
      struct Guard {
        bool* flag;
        ~Guard() { *flag = true; }
      } guard{&cleaned_up};
      cv->Wait();
    });
    sim.Run();  // quiescent: waiter blocked forever
    EXPECT_EQ(sim.live_thread_count(), 1u);
  }
  EXPECT_TRUE(cleaned_up);
}

// ------------------------------------------------------------ Cost model --
TEST(CostModelTest, MemcpyCostMatchesBandwidth) {
  CpuCostModel m;  // 40 Gb/s = 5 GB/s
  EXPECT_NEAR(ToSeconds(MemcpyCost(m, 5ULL << 30)), 1.0737, 0.01);
  EXPECT_EQ(MemcpyCost(m, 0), 0u);
}

TEST(CostModelTest, SortCostIsNLogN) {
  CpuCostModel m;
  EXPECT_EQ(SortCost(m, 0), 0u);
  EXPECT_EQ(SortCost(m, 1), 0u);
  const Nanos c1m = SortCost(m, 1 << 20);
  const Nanos c2m = SortCost(m, 1 << 21);
  // Doubling n slightly more than doubles the cost.
  EXPECT_GT(c2m, 2 * c1m);
  EXPECT_LT(c2m, 3 * c1m);
}

TEST(CostModelTest, ChargeCpuAdvancesClock) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  CpuCostModel m;
  n.Spawn("w", [&] {
    ChargeCpu(MemcpyCost(m, 1 << 20));
    EXPECT_GT(Now(), 0u);
  });
  sim.Run();
}

TEST(SimDiskTest, SequentialReadTimeMatchesBandwidth) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  DiskCostModel model;  // 1.2 Gb/s read
  SimDisk disk(sim, model);
  Nanos elapsed = 0;
  n.Spawn("reader", [&] {
    const Nanos start = Now();
    disk.Read(150'000'000, /*sequential=*/true);  // 150 MB at 150 MB/s
    elapsed = Now() - start;
  });
  sim.Run();
  EXPECT_NEAR(ToSeconds(elapsed), 1.0, 0.01);
  EXPECT_EQ(disk.bytes_read(), 150'000'000u);
}

TEST(SimDiskTest, RandomIoPaysSeek) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  SimDisk disk(sim, DiskCostModel{});
  Nanos seq_time = 0, rand_time = 0;
  n.Spawn("io", [&] {
    Nanos t0 = Now();
    disk.Read(4096, true);
    seq_time = Now() - t0;
    t0 = Now();
    disk.Read(4096, false);
    rand_time = Now() - t0;
  });
  sim.Run();
  EXPECT_GE(rand_time, seq_time + Millis(7));
}

TEST(SimDiskTest, ConcurrentRequestsSerializeOnSpindle) {
  Simulation sim;
  Node& n = sim.AddNode("a");
  SimDisk disk(sim, DiskCostModel{});
  Nanos done_a = 0, done_b = 0;
  n.Spawn("a", [&] {
    disk.Write(125'000'000, true);  // 1 s at 125 MB/s
    done_a = Now();
  });
  n.Spawn("b", [&] {
    disk.Write(125'000'000, true);
    done_b = Now();
  });
  sim.Run();
  const Nanos last = std::max(done_a, done_b);
  EXPECT_NEAR(ToSeconds(last), 2.0, 0.02);  // serialized, not parallel
}

}  // namespace
}  // namespace rstore::sim
