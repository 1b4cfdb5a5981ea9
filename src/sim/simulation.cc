#include "sim/simulation.h"

#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>

#include "check/check.h"
#include "check/lin.h"
#include "common/log.h"
#include "explore/policy.h"
#include "explore/trace_json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rstore::sim {

// ---------------------------------------------------------------------------
// SimPartition: one event queue + clock + thread-handoff channel. Every
// node has its own, plus partition 0 for driver-scheduled events;
// partitions dispatch independently inside conservative epochs and
// exchange cross-partition events through `outbox`, merged
// deterministically at epoch barriers (FlushOutboxes).
// ---------------------------------------------------------------------------
struct SimPartition {
  using Event = Simulation::Event;

  Simulation* sim = nullptr;
  uint32_t index = 0;
  Nanos now = 0;
  uint64_t next_seq = 0;
  uint64_t events_processed = 0;
  uint64_t thread_slices = 0;
  // Event queue as a manual binary min-heap over a reserved vector: the
  // storage is pooled across the run (no reallocation churn once warm)
  // and the top entry can be moved out instead of copied.
  std::vector<Event> events;
  // Cross-partition posts created while this partition dispatches, as
  // (destination partition index, event) in post order. Only the owning
  // dispatcher appends; only the driver thread drains, at barriers.
  std::vector<std::pair<uint32_t, Event>> outbox;
  // Livelock-guard streak for ExploreTieBreak (per partition: a pure
  // function of this partition's schedule).
  Nanos tie_streak_t = kNever;
  uint64_t tie_streak = 0;
  // Handoff state: mu orders the handoff edges; active is additionally
  // atomic so the dispatcher can spin-wait for the slice end without
  // taking the mutex (see RunThreadSlice).
  std::mutex mu;
  std::condition_variable scheduler_cv;
  std::atomic<SimThread*> active = nullptr;
};

// ---------------------------------------------------------------------------
// SimThread: one cooperative thread. The handoff protocol keeps the
// invariant that at any instant exactly one of {dispatcher, one SimThread}
// is executing per partition:
//
//   dispatcher -> thread : set part.active = t (under part.mu), notify cv_
//   thread -> dispatcher : set part.active = nullptr (under part.mu),
//                          notify part.scheduler_cv
//
// A thread "yields" by calling Block(), which performs the second handoff
// and waits to be re-activated. Wake events carry the generation number of
// the block instance they intend to end; stale wakes are ignored.
// ---------------------------------------------------------------------------
class SimThread {
 public:
  enum WakeReason : int { kNotify = 0, kTimeout = 1, kKilled = 2, kStart = 3 };

  SimThread(Node& node, std::string name, uint64_t tid,
            std::function<void()> fn)
      : node_(node),
        sim_(node.sim()),
        part_(*node.partition_),
        name_(std::move(name)),
        tid_(tid),
        fn_(std::move(fn)),
        os_thread_([this] { ThreadMain(); }) {}

  ~SimThread() {
    assert(exited_ && "simulation must unwind threads before destruction");
    if (os_thread_.joinable()) os_thread_.join();
  }

  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;

  // The dispatcher reads these after the handoff's release/acquire edge on
  // part.active, but they are atomic so the ThreadSanitizer build can
  // verify the protocol instead of trusting this comment.
  [[nodiscard]] bool exited() const noexcept {
    return exited_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool blocked() const noexcept {
    return blocked_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t gen() const noexcept {
    return gen_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] Node& node() noexcept { return node_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] uint64_t tid() const noexcept { return tid_; }

  // Called from the thread itself: yield to the scheduler until woken.
  // Throws ThreadKilled when the node died, so stacks unwind via RAII —
  // unless an exception is already in flight, in which case it returns
  // kKilled silently (throwing during unwind would terminate).
  WakeReason Block() {
    if (!node_.alive() || ShuttingDown()) {
      if (std::uncaught_exceptions() > 0) return kKilled;
      throw ThreadKilled{};
    }
    YieldToScheduler();
    if (!node_.alive() || ShuttingDown()) {
      if (std::uncaught_exceptions() > 0) return kKilled;
      throw ThreadKilled{};
    }
    return wake_reason_;
  }

 private:
  friend class Simulation;

  [[nodiscard]] bool ShuttingDown() const noexcept;

  void YieldToScheduler() {
    std::unique_lock<std::mutex> lock(part_.mu);
    blocked_.store(true, std::memory_order_relaxed);
    part_.active.store(nullptr, std::memory_order_release);
    part_.scheduler_cv.notify_one();
    cv_.wait(lock, [this] {
      return part_.active.load(std::memory_order_relaxed) == this;
    });
    blocked_.store(false, std::memory_order_relaxed);
    // Invalidate any other pending wakes for the finished block.
    gen_.fetch_add(1, std::memory_order_relaxed);
  }

  void ThreadMain();

  Node& node_;
  Simulation& sim_;
  SimPartition& part_;
  const std::string name_;
  const uint64_t tid_;  // simulation-unique id for trace attribution
  std::function<void()> fn_;

  std::condition_variable cv_;
  std::atomic<bool> blocked_ = true;  // starts "blocked"; ends at kStart
  std::atomic<bool> exited_ = false;
  std::atomic<uint64_t> gen_ = 0;
  WakeReason wake_reason_ = kStart;

  std::thread os_thread_;  // last member: starts after state is ready
};

namespace {
thread_local SimThread* g_current_thread = nullptr;
// Set on a host thread (driver or epoch worker) for the duration of one
// partition's dispatch, so scheduler-context callbacks resolve their
// clock and event queue. Node threads resolve through g_current_thread
// instead (they run on their own OS threads).
thread_local SimPartition* g_current_partition = nullptr;

SimThread* Current() {
  SimThread* t = g_current_thread;
  if (t == nullptr) {
    std::fprintf(stderr,
                 "fatal: sim primitive called from outside a simulated "
                 "thread\n");
    std::abort();
  }
  return t;
}

// RSTORE_HOST_THREADS: a positive decimal integer (capped at 1024), else
// 1. An unset or empty variable means 1 silently; anything else that does
// not parse whole as a positive integer is reported, like RSTORE_EXPLORE.
uint32_t HostThreadsFromEnv() {
  const char* e = std::getenv("RSTORE_HOST_THREADS");
  if (e == nullptr || *e == '\0') return 1;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(e, &end, 10);
  if (errno != 0 || *end != '\0' || v < 1) {
    std::fprintf(stderr,
                 "RSTORE_HOST_THREADS: invalid worker count '%s' (expected a "
                 "positive integer); using 1\n",
                 e);
    return 1;
  }
  return static_cast<uint32_t>(std::min(v, 1024L));
}
}  // namespace

bool SimThread::ShuttingDown() const noexcept { return sim_.shutting_down(); }

void SimThread::ThreadMain() {
  g_current_thread = this;
  {
    // First activation mirrors the tail of YieldToScheduler().
    std::unique_lock<std::mutex> lock(part_.mu);
    cv_.wait(lock, [this] {
      return part_.active.load(std::memory_order_relaxed) == this;
    });
    blocked_.store(false, std::memory_order_relaxed);
    gen_.fetch_add(1, std::memory_order_relaxed);
  }
  if (node_.alive() && !ShuttingDown()) {
    try {
      fn_();
    } catch (const ThreadKilled&) {
      // Normal teardown path.
    } catch (const std::exception& e) {
      LOG_ERROR << "uncaught exception in sim thread '" << name_
                << "' on node " << node_.name() << ": " << e.what();
    }
  }
  // Exit handoff: give control back to the scheduler permanently.
  std::lock_guard<std::mutex> lock(part_.mu);
  exited_.store(true, std::memory_order_relaxed);
  part_.active.store(nullptr, std::memory_order_release);
  part_.scheduler_cv.notify_one();
}

// ---------------------------------------------------------------------------
// Node
// ---------------------------------------------------------------------------
Node::Node(Simulation& sim, uint32_t id, std::string name, uint64_t seed)
    : sim_(sim), id_(id), name_(std::move(name)), rng_(seed) {}

Node::~Node() = default;

void Node::Spawn(std::string thread_name, std::function<void()> fn) {
  const uint64_t tid = sim_.AllocateTid();
  if (obs::Telemetry* tel = sim_.telemetry(); tel != nullptr) {
    tel->tracer().SetThreadName(id_, tid, thread_name);
  }
  auto thread = std::make_unique<SimThread>(*this, std::move(thread_name), tid,
                                            std::move(fn));
  SimThread* t = thread.get();
  threads_.push_back(std::move(thread));
  sim_.ScheduleWake(t, t->gen(), sim_.NowNanos(), SimThread::kStart);
}

size_t Node::live_threads() const noexcept {
  size_t n = 0;
  for (const auto& t : threads_) {
    if (!t->exited()) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Free functions for node code
// ---------------------------------------------------------------------------
Nanos Now() { return Current()->node().sim().NowNanos(); }

void Sleep(Nanos d) {
  SimThread* t = Current();
  Simulation& sim = t->node().sim();
  sim.ScheduleWake(t, t->gen(), sim.NowNanos() + d, SimThread::kTimeout);
  t->Block();
}

void Yield() { Sleep(0); }

Node& CurrentNode() { return Current()->node(); }

bool InSimThread() noexcept { return g_current_thread != nullptr; }

// ---------------------------------------------------------------------------
// CondVar
// ---------------------------------------------------------------------------
// A ThreadKilled unwind must NOT touch waiters_: the kill may be part of
// simulation teardown, in which case the object owning this CondVar can
// already be gone (threads blocked in a server's accept loop outlive the
// server object until Shutdown unwinds them). The stale waiter entry is
// harmless — SimThread objects live until the simulation is destroyed,
// and NotifyOne skips entries whose thread has exited.
void CondVar::Wait() {
  SimThread* t = Current();
  waiters_.push_back(t);
  t->Block();
}

bool CondVar::WaitFor(Nanos timeout) {
  // An effectively infinite timeout blocks without a timeout event (a wake
  // at kNever would outlive the simulation horizon).
  if (timeout >= kNever - sim_.NowNanos()) {
    Wait();
    return true;
  }
  SimThread* t = Current();
  waiters_.push_back(t);
  sim_.ScheduleWake(t, t->gen(), sim_.NowNanos() + timeout,
                    SimThread::kTimeout);
  if (t->Block() == SimThread::kTimeout) {
    std::erase(waiters_, t);
    return false;
  }
  return true;
}

void CondVar::NotifyOne() {
  // Drop entries whose thread exited (killed while waiting) from the
  // front; deeper stale entries are inert and get skipped when reached.
  while (!waiters_.empty() && waiters_.front()->exited()) {
    waiters_.pop_front();
  }
  if (waiters_.empty()) return;
  // Baseline wakes the longest waiter (deque front). An attached
  // exploration policy may wake any live waiter instead — this is the
  // kWaiterWake decision point, and pick 0 is the baseline front.
  size_t pick = 0;
  if (explore::SchedulePolicy* pol = sim_.policy_;
      pol != nullptr && waiters_.size() > 1) {
    auto& live = sim_.waiter_pick_scratch_;
    auto& lanes = sim_.waiter_lane_scratch_;
    live.clear();
    lanes.clear();
    for (size_t i = 0; i < waiters_.size(); ++i) {
      if (waiters_[i]->exited()) continue;
      live.push_back(i);
      lanes.push_back(waiters_[i]->node().id());
    }
    pick = live[pol->PickWaiter(lanes.data(),
                                static_cast<uint32_t>(lanes.size()))];
  }
  SimThread* t = waiters_[pick];
  waiters_.erase(waiters_.begin() + static_cast<ptrdiff_t>(pick));
  // CondVar edges are intra-node under per-node clocks (the hand-off is
  // subsumed by the notifier's node clock); ticking keeps stamps taken
  // around the notify distinct. Scheduler-context notifies (fabric
  // delivery) have no owning node and are ordered by the event loop.
  if (sim_.checker_ != nullptr && g_current_thread != nullptr) {
    sim_.checker_->OnCondNotify(g_current_thread->node().id());
  }
  sim_.ScheduleWake(t, t->gen(), sim_.NowNanos(), SimThread::kNotify);
}

void CondVar::NotifyAll() {
  while (!waiters_.empty()) NotifyOne();
}

Nanos CondVar::DeadlineFrom(Nanos timeout) const {
  const Nanos now = sim_.NowNanos();
  return timeout > kNever - now ? kNever : now + timeout;
}

Nanos CondVar::NowInternal() const { return sim_.NowNanos(); }

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------
Simulation::Simulation(SimConfig config)
    : config_(config), seeder_(config.seed) {
  // An explicit worker count wins; otherwise the environment sets it for
  // whole processes (the bench --host-threads flag and the CI
  // parallel-determinism gate both use the env).
  if (config_.host_threads == 0) config_.host_threads = HostThreadsFromEnv();
  partitions_.push_back(std::make_unique<Partition>());
  partitions_.back()->sim = this;
  partitions_.back()->index = 0;
  partitions_.back()->events.reserve(1024);
  // Opt-in runtime verification for whole test/bench processes: every
  // simulation in the process gets its own checker, and Shutdown() turns
  // any violation into a report + abort (the CI rcheck gate).
  if (const char* e = std::getenv("RSTORE_RCHECK");
      e != nullptr && *e != '\0' && std::strcmp(e, "0") != 0) {
    owned_checker_ = std::make_unique<check::Checker>();
    AttachChecker(owned_checker_.get());
  }
  // Opt-in linearizability checking (the rlin gate): same process-wide
  // contract as rcheck — each simulation gets its own history, Shutdown()
  // finalizes and aborts on violation.
  if (const char* e = std::getenv("RSTORE_RLIN");
      e != nullptr && *e != '\0' && std::strcmp(e, "0") != 0) {
    owned_lin_ = std::make_unique<check::LinChecker>();
    AttachLinChecker(owned_lin_.get());
  }
  // Opt-in schedule exploration: every simulation in the process gets its
  // own policy instance, cycling through the spec's derived seeds so one
  // bench/test invocation covers `runs` distinct schedules.
  if (const char* e = std::getenv("RSTORE_EXPLORE");
      e != nullptr && *e != '\0' && std::strcmp(e, "0") != 0) {
    explore::ExploreSpec spec;
    if (explore::ExploreSpec::Parse(e, &spec)) {
      static std::atomic<uint64_t> g_explore_instance{0};
      const uint64_t run =
          g_explore_instance.fetch_add(1, std::memory_order_relaxed);
      owned_policy_ = spec.Instantiate(run);
      policy_ = owned_policy_.get();
    } else {
      std::fprintf(stderr,
                   "RSTORE_EXPLORE: unparseable spec '%s' (expected "
                   "<policy>[:<seed>[:<runs>[:<max_delay_ns>]]], policy = "
                   "baseline | random | pct | pct<d>); exploring nothing\n",
                   e);
    }
  }
}

Simulation::~Simulation() { Shutdown(); }

Node& Simulation::AddNode(std::string name) {
  const auto id = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(
      std::make_unique<Node>(*this, id, std::move(name), seeder_.Next()));
  Node& node = *nodes_.back();
  partitions_.push_back(std::make_unique<Partition>());
  partitions_.back()->sim = this;
  partitions_.back()->index = static_cast<uint32_t>(partitions_.size() - 1);
  partitions_.back()->events.reserve(64);
  node.partition_ = partitions_.back().get();
  if (telemetry_ != nullptr) {
    (void)telemetry_->metrics().ForNode(id, node.name());
    telemetry_->tracer().RegisterNode(id, node.name());
  }
  return node;
}

Simulation::Partition* Simulation::CurrentPartition() const noexcept {
  if (g_current_thread != nullptr &&
      &g_current_thread->node().sim() == this) {
    return g_current_thread->node().partition_;
  }
  if (g_current_partition != nullptr && g_current_partition->sim == this) {
    return g_current_partition;
  }
  return nullptr;
}

Nanos Simulation::NowNanos() const noexcept {
  const Partition* p = CurrentPartition();
  return p != nullptr ? p->now : driver_now_;
}

uint32_t Simulation::CurrentPartitionIndex() const noexcept {
  const Partition* p = CurrentPartition();
  return p != nullptr ? p->index : 0;
}

bool Simulation::InContextOfNode(uint32_t node_id) const noexcept {
  const Partition* cur = CurrentPartition();
  return cur == nullptr || cur == nodes_.at(node_id)->partition_;
}

uint64_t Simulation::events_processed() const noexcept {
  uint64_t n = 0;
  for (const auto& p : partitions_) n += p->events_processed;
  return n;
}

uint64_t Simulation::thread_slices() const noexcept {
  uint64_t n = 0;
  for (const auto& p : partitions_) n += p->thread_slices;
  return n;
}

void Simulation::AtRunStart(std::function<void()> hook) {
  prepare_hooks_.push_back(std::move(hook));
}

void Simulation::AtEpochBarrier(std::function<void()> hook) {
  barrier_hooks_.push_back(std::move(hook));
}

void Simulation::AttachTelemetry(obs::Telemetry* telemetry) {
  if (telemetry_ != nullptr && telemetry == nullptr) {
    telemetry_->SetClock({});
    telemetry_->SetTidSource({});
    SetLogEmitHook({});
  }
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  // The clock and thread-id sources read scheduler state only; they are
  // observation hooks, never inputs to the event timeline.
  telemetry_->SetClock([this] { return static_cast<uint64_t>(NowNanos()); });
  telemetry_->SetTidSource([]() -> uint64_t {
    return g_current_thread != nullptr ? g_current_thread->tid() : 0;
  });
  for (const auto& node : nodes_) {
    (void)telemetry_->metrics().ForNode(node->id(), node->name());
    telemetry_->tracer().RegisterNode(node->id(), node->name());
  }
  // Route log emissions into a per-level counter on the emitting node
  // (scheduler-context lines land on a synthetic "host" row). Safe under
  // concurrent partition threads: ForNode/GetCounter take the registry
  // locks and counters are atomic.
  SetLogEmitHook([this](LogLevel level) {
    if (telemetry_ == nullptr) return;
    static constexpr std::string_view kCounterNames[] = {
        "log.debug", "log.info", "log.warn", "log.error"};
    obs::NodeMetrics& node =
        g_current_thread != nullptr
            ? telemetry_->metrics().ForNode(g_current_thread->node().id(),
                                            g_current_thread->node().name())
            : telemetry_->metrics().ForNode(~0u, "host");
    node.GetCounter(kCounterNames[static_cast<int>(level)]).Inc();
  });
}

void Simulation::AttachChecker(check::Checker* checker) {
  checker_ = checker;
  if (checker_ != nullptr) {
    // Observation hook only: the checker reads the clock, never drives it.
    checker_->SetClock([this] { return static_cast<uint64_t>(NowNanos()); });
  }
}

void Simulation::AttachLinChecker(check::LinChecker* lin) { lin_ = lin; }

void Simulation::AttachPolicy(explore::SchedulePolicy* policy) {
  policy_ = policy;
}

void Simulation::PushEvent(Partition& p, Event e) {
  p.events.push_back(std::move(e));
  std::push_heap(p.events.begin(), p.events.end(), std::greater<>{});
}

Simulation::Event Simulation::PopEvent(Partition& p) {
  std::pop_heap(p.events.begin(), p.events.end(), std::greater<>{});
  Event e = std::move(p.events.back());
  p.events.pop_back();
  return e;
}

void Simulation::At(Nanos t, EventFn fn) {
  Partition* cur = CurrentPartition();
  Partition& p = cur != nullptr ? *cur : *partitions_.front();
  Event e;
  e.t = std::max(t, cur != nullptr ? cur->now : driver_now_);
  e.seq = p.next_seq++;
  e.fn = std::move(fn);
  PushEvent(p, std::move(e));
}

void Simulation::After(Nanos delay, EventFn fn) {
  At(NowNanos() + delay, std::move(fn));
}

void Simulation::PostToNode(uint32_t node_id, Nanos t, EventFn fn) {
  Partition& target = *nodes_.at(node_id)->partition_;
  Partition* cur = CurrentPartition();
  Event e;
  e.fn = std::move(fn);
  if (cur != nullptr && cur != &target) {
    // Cross-partition: buffered in post order, merged at the next epoch
    // barrier (seq stamped there, under the merge rule).
    e.t = t;
    e.seq = 0;
    cur->outbox.emplace_back(target.index, std::move(e));
    return;
  }
  // Same partition, or driver context between runs (no dispatcher is
  // touching any heap): push directly.
  e.t = std::max(t, cur != nullptr ? cur->now : driver_now_);
  e.seq = target.next_seq++;
  PushEvent(target, std::move(e));
}

void Simulation::ScheduleWake(SimThread* t, uint64_t gen, Nanos at,
                              int reason) {
  Partition& target = *t->node().partition_;
  Partition* cur = CurrentPartition();
  Event e;
  e.wake_target = t;
  e.wake_gen = gen;
  e.wake_reason = reason;
  if (cur != nullptr && cur != &target) {
    // Cross-partition notify (e.g. a CondVar poked from another node's
    // context while one worker dispatches): routed through the epoch
    // boundary; the generation check makes late arrivals safe.
    e.t = std::max(at, cur->now);
    e.seq = 0;
    cur->outbox.emplace_back(target.index, std::move(e));
    return;
  }
  e.t = std::max(at, cur != nullptr ? cur->now : driver_now_);
  e.seq = target.next_seq++;
  PushEvent(target, std::move(e));
}

void Simulation::RunThreadSlice(Partition& p, SimThread* t) {
  // Scheduler hand-off edge: tick the node's clock component so shadow
  // stamps taken on either side of the slice boundary stay distinct.
  if (checker_ != nullptr) checker_->OnThreadSlice(t->node().id());
  {
    std::lock_guard<std::mutex> lock(p.mu);
    p.active.store(t, std::memory_order_release);
  }
  t->cv_.notify_one();
  // Slices are typically a few microseconds of real work, so poll for the
  // handback before parking on the condvar: most slices end while we
  // watch, which halves the OS handoff cost (one futex round trip instead
  // of two). *How* to poll depends on the host: with spare cores the
  // slice proceeds in parallel, so pause-spin; on a uniprocessor the
  // woken thread cannot run while we occupy the core — spinning only
  // delays it — so donate the core with sched_yield and check between
  // reschedules.
  static const bool kUniprocessor = std::thread::hardware_concurrency() == 1;
  if (kUniprocessor) {
    constexpr int kYieldIters = 64;
    for (int i = 0; i < kYieldIters; ++i) {
      if (p.active.load(std::memory_order_acquire) == nullptr) return;
      std::this_thread::yield();
    }
  } else {
    constexpr int kSpinIters = 4096;
    for (int i = 0; i < kSpinIters; ++i) {
      if (p.active.load(std::memory_order_acquire) == nullptr) return;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#elif defined(__aarch64__)
      asm volatile("yield");
#endif
    }
  }
  std::unique_lock<std::mutex> lock(p.mu);
  p.scheduler_cv.wait(lock, [&p] {
    return p.active.load(std::memory_order_relaxed) == nullptr;
  });
}

Simulation::Event Simulation::ExploreTieBreak(Partition& p, Event first) {
  // Gather every candidate at this instant. Stale wakes are discarded
  // here instead of at dispatch — staleness is permanent (generations
  // only grow), so early discard is behaviour-identical to the baseline's
  // lazy discard and keeps the clock untouched either way.
  tie_events_.clear();
  tie_events_.push_back(std::move(first));
  const Nanos t = tie_events_.front().t;
  while (!p.events.empty() && p.events.front().t == t) {
    Event e = PopEvent(p);
    if (e.wake_target != nullptr) {
      SimThread* th = e.wake_target;
      if (th->exited() || !th->blocked() || th->gen() != e.wake_gen) {
        continue;
      }
    }
    tie_events_.push_back(std::move(e));
  }
  size_t pick = 0;
  if (tie_events_.size() > 1) {
    if (t != p.tie_streak_t) {
      p.tie_streak_t = t;
      p.tie_streak = 0;
    }
    if (++p.tie_streak <= kMaxSameInstantPicks) {
      tie_lanes_.clear();
      for (const Event& e : tie_events_) {
        tie_lanes_.push_back(e.wake_target != nullptr
                                 ? e.wake_target->node().id()
                                 : explore::kNoLane);
      }
      pick = policy_->PickEvent(tie_lanes_.data(),
                                static_cast<uint32_t>(tie_lanes_.size()));
    }
    // else: livelock guard tripped — baseline FIFO until time advances.
  }
  Event chosen = std::move(tie_events_[pick]);
  for (size_t i = 0; i < tie_events_.size(); ++i) {
    if (i != pick) PushEvent(p, std::move(tie_events_[i]));
  }
  tie_events_.clear();
  return chosen;
}

void Simulation::Run() { RunUntil(kNever); }

void Simulation::DispatchPartition(Partition& p, Nanos deadline,
                                   Nanos until) {
  while (!p.events.empty()) {
    // Conservative epoch horizon: nothing at or past `until` may run this
    // epoch (cross-partition arrivals up to the horizon are already
    // merged; later ones are not yet visible).
    if (until != kNever && p.events.front().t >= until) return;
    Event e = PopEvent(p);
    if (e.wake_target != nullptr) {
      SimThread* t = e.wake_target;
      if (t->exited() || !t->blocked() || t->gen() != e.wake_gen) {
        continue;  // stale wake: discard without touching the clock
      }
    }
    // Same-instant tie-break: only consulted when a policy is attached
    // and another event shares this instant, so the un-explored fast
    // path is one branch.
    if (policy_ != nullptr && !p.events.empty() &&
        p.events.front().t == e.t && e.t <= deadline) {
      e = ExploreTieBreak(p, std::move(e));
    }
    if (e.t > deadline) {
      // Put it back and stop at the deadline.
      PushEvent(p, std::move(e));
      p.now = std::max(p.now, deadline);
      return;
    }
    if (e.t > config_.horizon) {
      std::fprintf(stderr,
                   "fatal: simulation passed its horizon (%.3f s) — likely "
                   "livelock\n",
                   ToSeconds(config_.horizon));
      std::abort();
    }
    p.now = std::max(p.now, e.t);
    ++p.events_processed;
    if (e.wake_target != nullptr) {
      ++p.thread_slices;
      e.wake_target->wake_reason_ =
          static_cast<SimThread::WakeReason>(e.wake_reason);
      RunThreadSlice(p, e.wake_target);
    } else {
      e.fn();
    }
  }
}

void Simulation::DispatchShare(uint32_t worker, uint32_t stride,
                               Nanos deadline, Nanos until) {
  const size_t count = partitions_.size();
  for (size_t i = worker; i < count; i += stride) {
    Partition& p = *partitions_[i];
    if (p.events.empty()) continue;
    g_current_partition = &p;
    DispatchPartition(p, deadline, until);
    g_current_partition = nullptr;
  }
}

void Simulation::FlushOutboxes() {
  // Ascending source partition id, each outbox in post order: the gather
  // order per destination is (source partition, post order), and the
  // stable sort by t refines it to (t, source partition, post order) —
  // THE cross-partition merge rule. Destination seqs are stamped in that
  // order, so merged events obey the normal same-instant FIFO tie-break.
  for (auto& sp : partitions_) {
    for (auto& [dst, ev] : sp->outbox) {
      if (merge_scratch_[dst].empty()) merge_dirty_.push_back(dst);
      merge_scratch_[dst].push_back(std::move(ev));
    }
    sp->outbox.clear();
  }
  for (const uint32_t dst : merge_dirty_) {
    auto& arrivals = merge_scratch_[dst];
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const Event& a, const Event& b) { return a.t < b.t; });
    Partition& d = *partitions_[dst];
    for (Event& ev : arrivals) {
      ev.seq = d.next_seq++;
      PushEvent(d, std::move(ev));
    }
    arrivals.clear();
  }
  merge_dirty_.clear();
}

// Epoch rendezvous for the worker pool: the driver publishes
// (gen, deadline, until) and waits for `outstanding` to drain; workers
// dispatch their static share (partition i goes to worker i % workers, so
// the assignment — though not the timeline, which doesn't depend on it —
// is reproducible too).
struct Simulation::EpochSync {
  std::mutex mu;
  std::condition_variable go_cv;
  std::condition_variable done_cv;
  uint64_t gen = 0;
  uint32_t outstanding = 0;
  Nanos deadline = 0;
  Nanos until = 0;
  bool quit = false;
};

void Simulation::RunUntil(Nanos deadline) {
  assert(!InSimThread() && "Run must be driven from outside the simulation");
  stop_requested_.store(false, std::memory_order_relaxed);
  merge_scratch_.resize(partitions_.size());
  // Run-start hooks: models pre-size per-partition pools and pre-resolve
  // telemetry instruments so the parallel phase never mutates shared
  // tables.
  for (auto& hook : prepare_hooks_) hook();
  const auto count = static_cast<uint32_t>(partitions_.size());
  // A checker, a policy, or span tracing observes one global order:
  // dispatch partitions serially (in id order) on this thread. The
  // timeline is identical to parallel dispatch by construction — the
  // epoch structure, merges, and per-partition orders do not depend on
  // which host thread dispatches a partition — so serialized runs are
  // valid goldens for parallel ones and vice versa.
  const bool serialize =
      checker_ != nullptr || lin_ != nullptr || policy_ != nullptr ||
      (telemetry_ != nullptr && telemetry_->tracing());
  const uint32_t workers =
      serialize ? 1 : std::min(config_.host_threads, count);

  EpochSync sync;
  std::vector<std::thread> pool;
  pool.reserve(workers > 0 ? workers - 1 : 0);
  for (uint32_t w = 1; w < workers; ++w) {
    pool.emplace_back([this, &sync, w, workers] {
      uint64_t seen = 0;
      for (;;) {
        Nanos dl = 0;
        Nanos hor = 0;
        {
          std::unique_lock<std::mutex> lock(sync.mu);
          sync.go_cv.wait(lock,
                          [&] { return sync.quit || sync.gen != seen; });
          if (sync.quit) return;
          seen = sync.gen;
          dl = sync.deadline;
          hor = sync.until;
        }
        DispatchShare(w, workers, dl, hor);
        {
          std::lock_guard<std::mutex> lock(sync.mu);
          --sync.outstanding;
        }
        sync.done_cv.notify_one();
      }
    });
  }

  for (;;) {
    FlushOutboxes();
    for (auto& hook : barrier_hooks_) hook();
    // Stop requests take effect at epoch boundaries only — sampling the
    // flag mid-epoch would make the dispatched set depend on worker
    // timing.
    if (stop_requested_.load(std::memory_order_relaxed)) break;
    Nanos tmin = kNever;
    for (const auto& p : partitions_) {
      if (!p->events.empty() && p->events.front().t < tmin) {
        tmin = p->events.front().t;
      }
    }
    if (tmin == kNever) break;  // quiescent
    if (tmin > deadline) {
      for (auto& p : partitions_) p->now = std::max(p->now, deadline);
      break;
    }
    // Epochs are event-driven (they start at the global minimum, jumping
    // idle gaps) and extend one lookahead past it: every cross-partition
    // effect of an event at t lands at t + lookahead or later, so events
    // strictly below the horizon can never be invalidated by another
    // partition's work in the same epoch. Without a finite positive
    // lookahead (no fabric attached, or a zero-latency one), fall back to
    // one virtual instant per epoch: partitions may interact at the next
    // instant (driver callbacks poking node state, KillNode), so running
    // any further ahead could reorder cross-partition effects — and
    // instant-sized epochs also keep RequestStop sampling prompt.
    const Nanos la =
        (lookahead_ == kNever || lookahead_ == 0) ? 1 : lookahead_;
    const Nanos until = la >= kNever - tmin ? kNever : tmin + la;
    if (workers > 1) {
      {
        std::lock_guard<std::mutex> lock(sync.mu);
        ++sync.gen;
        sync.outstanding = workers - 1;
        sync.deadline = deadline;
        sync.until = until;
      }
      sync.go_cv.notify_all();
      DispatchShare(0, workers, deadline, until);
      std::unique_lock<std::mutex> lock(sync.mu);
      sync.done_cv.wait(lock, [&] { return sync.outstanding == 0; });
    } else {
      DispatchShare(0, 1, deadline, until);
    }
  }

  if (!pool.empty()) {
    {
      std::lock_guard<std::mutex> lock(sync.mu);
      sync.quit = true;
    }
    sync.go_cv.notify_all();
    for (auto& t : pool) t.join();
  }
  Nanos max_now = driver_now_;
  for (const auto& p : partitions_) max_now = std::max(max_now, p->now);
  driver_now_ = max_now;
}

void Simulation::KillNode(uint32_t id) {
  Node& node = *nodes_.at(id);
  Partition& target = *node.partition_;
  Partition* cur = CurrentPartition();
  if (cur != nullptr && cur != &target) {
    // Cross-partition kill: routed through the epoch boundary so the
    // takedown lands at a deterministic point in the target's timeline.
    PostToNode(id, cur->now, [this, &node] {
      if (!node.alive()) return;
      node.alive_.store(false, std::memory_order_relaxed);
      SweepKilledThreads(node);
    });
    return;
  }
  if (!node.alive()) return;
  node.alive_.store(false, std::memory_order_relaxed);
  // Sweep at the current instant: wake every still-blocked thread so it
  // unwinds. Gens are read at fire time, so threads that ran in between
  // are still caught (their next Block() throws on the alive_ check).
  PostToNode(id, NowNanos(), [this, &node] { SweepKilledThreads(node); });
}

void Simulation::SweepKilledThreads(Node& node) {
  for (auto& t : node.threads_) {
    if (!t->exited() && t->blocked()) {
      t->wake_reason_ = SimThread::kKilled;
      RunThreadSlice(*node.partition_, t.get());
    }
  }
}

size_t Simulation::live_thread_count() const noexcept {
  size_t n = 0;
  for (const auto& node : nodes_) n += node->live_threads();
  return n;
}

void Simulation::Shutdown() {
  shutting_down_.store(true, std::memory_order_relaxed);
  // A caller-attached checker may already be destroyed by the time the
  // simulation unwinds (it is usually declared after the TestCluster that
  // owns us). Everything it could observe below is forced teardown, so
  // detach it now; the owned checker lives until ~Simulation and keeps
  // observing.
  if (checker_ != owned_checker_.get()) checker_ = nullptr;
  if (lin_ != owned_lin_.get()) lin_ = nullptr;
  for (auto& node : nodes_) {
    node->alive_.store(false, std::memory_order_relaxed);
    for (auto& t : node->threads_) {
      if (!t->exited() && t->blocked()) {
        t->wake_reason_ = SimThread::kKilled;
        RunThreadSlice(*node->partition_, t.get());
      }
    }
  }
  // All threads have exited; their destructors join the OS threads.
  for (auto& node : nodes_) {
    for ([[maybe_unused]] auto& t : node->threads_) {
      assert(t->exited());
    }
  }
  // Join now rather than from ~Node: members are destroyed in reverse
  // declaration order, so the partitions (and their condvars) die before
  // nodes_, and an exiting thread may still be inside its final
  // notify_one — except partitions_ is declared first, so they outlive
  // nodes_; the explicit clear below keeps the historical join point.
  for (auto& node : nodes_) {
    node->threads_.clear();
  }
  // Exploration accounting (the policy outlives the simulation by
  // contract, so reading it here is safe) and, for env-attached runs that
  // found a violation, the replayable schedule dump — written *before*
  // the rcheck abort below so the repro trace always lands on disk.
  // explore.violations counts the owned (env-attached) checker only; a
  // caller-attached checker belongs to the explorer driver, which reads
  // it directly.
  // The env-attached lin checker finalizes here, before the explore-trace
  // dump, so a PCT-found linearizability violation also gets its
  // replayable schedule written.
  if (owned_lin_ != nullptr) owned_lin_->Finalize();
  if (policy_ != nullptr) {
    if (telemetry_ != nullptr) {
      obs::NodeMetrics& host = telemetry_->metrics().ForNode(~0u, "host");
      host.GetCounter("explore.runs").Inc();
      host.GetCounter("explore.choices").Inc(policy_->choices());
      host.GetCounter("explore.divergences").Inc(policy_->divergences());
      if (owned_checker_ != nullptr) {
        host.GetCounter("explore.violations")
            .Inc(owned_checker_->violation_count());
      }
    }
    if (owned_policy_ != nullptr &&
        ((owned_checker_ != nullptr &&
          owned_checker_->violation_count() > 0) ||
         (owned_lin_ != nullptr && owned_lin_->violation_count() > 0))) {
      static int trace_seq = 0;
      std::string path = "explore_trace.json";
      if (const char* out = std::getenv("RSTORE_EXPLORE_OUT");
          out != nullptr && *out != '\0') {
        path = std::string(out) + "/explore-" + std::to_string(getpid()) +
               "-" + std::to_string(trace_seq++) + ".json";
      }
      std::ofstream f(path);
      if (f.is_open()) {
        f << explore::ToJson(owned_policy_->Trace());
        std::cerr << "rexplore: replayable schedule written to " << path
                  << " (replay with tools/rexplore)\n";
      }
    }
  }
  // Environment-attached checker: turn violations into a visible failure.
  // (A programmatically attached checker belongs to the caller, who
  // inspects violations() itself.)
  if (owned_checker_ != nullptr && owned_checker_->violation_count() > 0) {
    owned_checker_->PrintReports(std::cerr);
    static int dump_seq = 0;
    std::string path = "rcheck_report.json";
    if (const char* out = std::getenv("RSTORE_RCHECK_OUT");
        out != nullptr && *out != '\0') {
      path = std::string(out) + "/rcheck-" + std::to_string(getpid()) +
             "-" + std::to_string(dump_seq++) + ".json";
    }
    std::ofstream f(path);
    if (f.is_open()) {
      owned_checker_->DumpJson(f);
      std::cerr << "rcheck: report written to " << path << '\n';
    }
    std::abort();
  }
  // Environment-attached lin checker: same contract as rcheck above.
  if (owned_lin_ != nullptr && owned_lin_->violation_count() > 0) {
    owned_lin_->PrintReports(std::cerr);
    static int lin_dump_seq = 0;
    std::string path = "rlin_report.json";
    if (const char* out = std::getenv("RSTORE_RLIN_OUT");
        out != nullptr && *out != '\0') {
      path = std::string(out) + "/rlin-" + std::to_string(getpid()) + "-" +
             std::to_string(lin_dump_seq++) + ".json";
    }
    std::ofstream f(path);
    if (f.is_open()) {
      owned_lin_->DumpJson(f);
      std::cerr << "rlin: counterexample written to " << path << '\n';
    }
    std::abort();
  }
  checker_ = nullptr;
  lin_ = nullptr;
  // Detach telemetry last: teardown may still log, and the hooks capture
  // `this`.
  AttachTelemetry(nullptr);
}

}  // namespace rstore::sim
