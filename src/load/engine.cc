#include "load/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "check/lin.h"
#include "kv/kv.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/cost_model.h"
#include "sim/simulation.h"

namespace rstore::load {

using kv::SlotLayout;

namespace {

std::string_view KeyView(const std::byte* key) noexcept {
  return {reinterpret_cast<const char*>(key), 8};
}

// The verbs opcode of each kv::SlotIo::Op.
constexpr verbs::Opcode kOpcodeOf[] = {verbs::Opcode::kRdmaRead,
                                       verbs::Opcode::kRdmaWrite,
                                       verbs::Opcode::kCompareSwap};

kv::SlotOp::Kind SlotKindOf(OpType op) noexcept {
  if (op == OpType::kUpdate || op == OpType::kInsert) {
    return kv::SlotOp::Kind::kPut;
  }
  return op == OpType::kReadModifyWrite ? kv::SlotOp::Kind::kUpdate
                                        : kv::SlotOp::Kind::kGet;
}

}  // namespace

LoadEngine::LoadEngine(core::RStoreClient& client, std::string table,
                       const LoadOptions& options, uint32_t engine_index,
                       uint32_t engine_count)
    : client_(client),
      table_(std::move(table)),
      options_(options),
      engine_index_(engine_index),
      engine_count_(engine_count),
      mux_(client.device()),
      hotkeys_(options_.hotkey_capacity) {}

LoadEngine::~LoadEngine() {
  if (arena_mr_ != nullptr && pd_ != nullptr) {
    (void)pd_->DeregisterMemory(arena_mr_);
  }
}

void LoadEngine::EncodeKey(uint64_t id, std::byte out[8]) noexcept {
  std::memcpy(out, &id, sizeof(id));
}

uint64_t LoadEngine::SlotOffset(uint64_t slot) const noexcept {
  return SlotLayout::SlotOffset(slot, geometry_.slot_bytes);
}

std::byte* LoadEngine::Scratch(uint32_t s) noexcept {
  return arena_.data() + static_cast<size_t>(s) * stride_;
}

uint64_t LoadEngine::Cookie(uint32_t s) const noexcept {
  return (static_cast<uint64_t>(s) << 32) | sessions_[s].gen;
}

uint32_t LoadEngine::ServerIndexOf(uint64_t slot) {
  // The slot's version cell (8 bytes at the slot start) never straddles a
  // slab boundary (slab sizes are 8-aligned; validated in Setup), so the
  // home server of an op is always well defined.
  auto span = region_->Resolve(SlotOffset(slot) + SlotLayout::kVersionOff, 8);
  if (!span.ok()) return 0;
  return server_index_.at(span->server_node);
}

size_t LoadEngine::Moderation() const noexcept {
  // CQ interrupt moderation: wait for a batch proportional to the
  // in-flight count, so heavy load amortizes wakeups and light load
  // stays prompt.
  size_t m = static_cast<size_t>(inflight_wrs_ / 4);
  m = std::clamp<size_t>(m, 1, options_.moderation_max);
  return std::min<size_t>(m, static_cast<size_t>(inflight_wrs_));
}

void LoadEngine::StagePieces(uint32_t s, Lane lane, const kv::SlotIo& io,
                             bool signaled) {
  const uint64_t cookie = Cookie(s);
  for (const Piece& p : pieces_) {
    verbs::SendWr wr;
    wr.wr_id = signaled ? cookie : 0;
    wr.local = {p.local, p.length, arena_mr_->lkey()};
    wr.remote_addr = p.span.remote_addr;
    wr.rkey = p.span.rkey;
    wr.signaled = signaled;
    wr.opcode = kOpcodeOf[static_cast<size_t>(io.op)];
    wr.compare = io.compare;  // both zero unless a CAS
    wr.swap_or_add = io.swap;
    mux_.Stage(server_index_.at(p.span.server_node), s, lane, wr);
  }
}

Status LoadEngine::CollectPieces(uint64_t offset, uint64_t length,
                                 std::byte* local) {
  pieces_.clear();
  const uint64_t slab = region_->desc().slab_size;
  while (length > 0) {
    const uint64_t in_slab = offset % slab;
    const uint64_t n = std::min(length, slab - in_slab);
    auto span = region_->Resolve(offset, n);
    if (!span.ok()) return span.status();
    pieces_.push_back({*span, local, static_cast<uint32_t>(n)});
    offset += n;
    local += n;
    length -= n;
  }
  return Status::Ok();
}

void LoadEngine::ResolveObs() {
  obs::Telemetry* tel = client_.device().network().sim().telemetry();
  if (tel == obs_owner_) return;
  obs_owner_ = tel;
  if (tel == nullptr) {
    obs_latency_ = nullptr;
    obs_completed_ = nullptr;
    obs_shed_ = nullptr;
    return;
  }
  obs::NodeMetrics& m =
      tel->metrics().ForNode(client_.device().node_id());
  obs_latency_ = &m.GetTimer("load.op_ns");
  obs_completed_ = &m.GetCounter("load.completed");
  obs_shed_ = &m.GetCounter("load.shed");
}

// ---------------------------------------------------------------------------
// Setup and preload.

Status LoadEngine::Setup() {
  lin_ = client_.device().network().sim().lin();
  RSTORE_ASSIGN_OR_RETURN(region_, client_.Rmap(table_));
  if (region_->desc().slab_size % 8 != 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "slab size must be 8-byte aligned");
  }

  // Table geometry comes from the header, like KvStore::Open.
  RSTORE_ASSIGN_OR_RETURN(core::PinnedBuffer hdr,
                          client_.AllocBuffer(SlotLayout::kHeaderBytes));
  RSTORE_RETURN_IF_ERROR(region_->Read(0, hdr.data));
  if (!SlotLayout::ReadHeader(hdr.begin(), &geometry_)) {
    return Status(ErrorCode::kInvalidArgument, "not an RKV table");
  }

  // Dense server index in slab order (mux + admission addressing).
  for (const auto& slab : region_->desc().slabs) {
    if (server_index_.emplace(slab.server_node, server_nodes_.size()).second) {
      server_nodes_.push_back(slab.server_node);
    }
  }
  RSTORE_RETURN_IF_ERROR(mux_.Connect(server_nodes_, options_.qp_per_server));
  admission_ = std::make_unique<AdmissionController>(
      static_cast<uint32_t>(server_nodes_.size()), options_.admission,
      options_.window_per_server, options_.max_deferred);

  // One zipf generator per engine: its O(n) CDF is too heavy to clone per
  // session, and sessions are stepped in deterministic order anyway.
  zipf_ = std::make_unique<ZipfGenerator>(
      options_.preload_keys, options_.theta,
      options_.seed ^ (0x9e3779b97f4a7c15ULL * (engine_index_ + 1)));

  // Block-partition the sessions over engines.
  const uint32_t total = options_.sessions;
  const uint32_t base = total / engine_count_;
  const uint32_t rem = total % engine_count_;
  const uint32_t count = base + (engine_index_ < rem ? 1 : 0);
  first_global_session_ =
      engine_index_ * base + std::min(engine_index_, rem);
  if (count == 0) {
    return Status(ErrorCode::kInvalidArgument, "engine has no sessions");
  }
  sessions_.resize(count);
  for (uint32_t s = 0; s < count; ++s) {
    const uint64_t gsid = first_global_session_ + s;
    sessions_[s].rng =
        Rng(options_.seed ^ (0x2545f4914f6cdd1dULL * (gsid + 1)));
  }

  // Scratch arena: per-session read/compose area (one slot image, or a
  // scan run) plus the slot machine's 8-byte cells.
  const uint32_t slots =
      options_.mix.scan > 0.0 ? std::max(options_.scan_len, 1u) : 1u;
  read_area_ = static_cast<size_t>(geometry_.slot_bytes) * slots;
  stride_ = (read_area_ + kv::SlotOp::kCellBytes + 7) & ~size_t{7};
  arena_.assign(static_cast<size_t>(count) * stride_, std::byte{0});
  pd_ = &client_.device().CreatePd();
  RSTORE_ASSIGN_OR_RETURN(
      arena_mr_,
      pd_->RegisterMemory(arena_.data(), arena_.size(), verbs::kLocalWrite));
  for (uint32_t s = 0; s < count; ++s) {
    sessions_[s].slot =
        kv::SlotOp(geometry_, Scratch(s), Scratch(s) + read_area_);
  }
  stats_.sessions = count;
  stats_.qps = mux_.qp_count();
  if (options_.rtrace.mode != obs::RtraceMode::kOff) {
    rtrace_ = std::make_unique<obs::RtraceCollector>(options_.rtrace);
  }
  return Status::Ok();
}

Status LoadEngine::PreloadTable(core::RStoreClient& client,
                                const std::string& name,
                                const LoadOptions& options) {
  kv::KvOptions geo;
  geo.buckets = options.buckets();
  geo.slot_bytes = options.slot_bytes;
  geo.max_probe = options.max_probe;
  RSTORE_ASSIGN_OR_RETURN(auto store, kv::KvStore::Create(client, name, geo));
  (void)store;
  RSTORE_ASSIGN_OR_RETURN(core::MappedRegion * region, client.Rmap(name));

  // Compose the whole table locally, then stream it with one large write:
  // the per-key Put protocol (probe, CAS, write, release) is pure waste
  // when nobody else can observe the table yet.
  const uint64_t table_bytes = geo.buckets * geo.slot_bytes;
  RSTORE_ASSIGN_OR_RETURN(core::PinnedBuffer img,
                          client.AllocBuffer(table_bytes));
  std::memset(img.begin(), 0, table_bytes);
  Rng values(options.seed ^ 0x6c078965ULL);
  check::LinChecker* lin = client.device().network().sim().lin();
  uint64_t placed = 0;
  for (uint64_t id = 0; id < options.preload_keys; ++id) {
    std::byte kb[8];
    EncodeKey(id, kb);
    const uint64_t home = SlotLayout::HomeSlot(KeyView(kb), geo.buckets);
    for (uint32_t p = 0; p < geo.max_probe; ++p) {
      std::byte* dst =
          img.begin() + (home + p) % geo.buckets * geo.slot_bytes;
      if (!SlotLayout::Parse(dst).never_used()) continue;
      const std::span<std::byte> value = SlotLayout::Compose(
          dst, geo.slot_bytes, /*version=*/2, KeyView(kb),
          options.value_bytes);
      values.Fill(value.data(), value.size());
      // rlin: the preloaded value is the key's initial register state.
      if (lin != nullptr) {
        lin->RecordInit(StableHash64(KeyView(kb)),
                        check::LinChecker::Digest(value.data(), value.size()));
      }
      ++placed;
      break;
    }
  }
  if (placed < options.preload_keys) {
    return Status(ErrorCode::kOutOfMemory, "preload overflowed probe window");
  }
  return region->Write(SlotLayout::kHeaderBytes,
                       std::span<const std::byte>(img.begin(), table_bytes));
}

// ---------------------------------------------------------------------------
// Arrival schedule.

void LoadEngine::ScheduleFirstArrivals() {
  for (uint32_t s = 0; s < sessions_.size(); ++s) {
    sessions_[s].next_intended = t0_;
    PushNextArrival(s);
  }
}

void LoadEngine::PushNextArrival(uint32_t s) {
  Session& ses = sessions_[s];
  // Exponential gap at the curve's instantaneous per-session rate. The
  // draw happens at schedule time, so the arrival process is open loop:
  // completions never influence when the next op is due.
  const double rate =
      options_.curve.RateAt(options_.offered_load,
                            ses.next_intended - t0_, options_.duration) /
      static_cast<double>(options_.sessions);
  if (!(rate > 0.0)) {
    ses.next_intended = t_end_;
    return;
  }
  const double u = ses.rng.NextDouble();
  double gap_s = -std::log1p(-u) / rate;
  if (!(gap_s >= 1e-9)) gap_s = 1e-9;
  const double cap_s = sim::ToSeconds(options_.duration) + 1.0;
  if (gap_s >= cap_s) {
    ses.next_intended = t_end_;
    return;
  }
  ses.next_intended += std::max<sim::Nanos>(
      1, static_cast<sim::Nanos>(std::llround(gap_s * 1e9)));
  if (ses.next_intended < t_end_) {
    arrivals_.push({ses.next_intended, s});
  }
}

void LoadEngine::OnArrival(uint32_t s, sim::Nanos intended) {
  Session& ses = sessions_[s];
  ++stats_.arrivals;
  ++open_ops_;
  // The intended time anchors the latency measurement even if the session
  // is busy — the op starts late and the wait shows up in the histogram.
  ses.backlog.push_back(intended);
  PushNextArrival(s);
  if (ses.phase == Phase::kIdle) StartNextFromBacklog(s);
}

void LoadEngine::StartNextFromBacklog(uint32_t s) {
  Session& ses = sessions_[s];
  while (ses.phase == Phase::kIdle && !ses.backlog.empty()) {
    BeginOp(s);  // leaves phase == kIdle only when the op was shed
  }
}

void LoadEngine::BeginOp(uint32_t s) {
  Session& ses = sessions_[s];
  ses.intended = ses.backlog.front();
  ses.backlog.pop_front();
  // Deadline shed: under sustained overload the per-session backlog is
  // unbounded (open loop), so an op can be stale before it is even
  // started. Starting it anyway just reports queueing delay the operator
  // already chose to shed; dropping it here is what keeps the
  // completed-op tail bounded.
  if (options_.admission && options_.shed_deadline > 0 &&
      sim::Now() > ses.intended + options_.shed_deadline) {
    ++stats_.shed;
    --open_ops_;
    ResolveObs();
    if (obs_shed_ != nullptr) obs_shed_->Inc();
    return;  // phase stays kIdle; caller loop starts the next backlog op
  }
  if (rtrace_ != nullptr) {
    // New op: reset the stage breakdown and charge everything between the
    // intended send and this instant to backlog wait. From here on, each
    // transition charges [tr_cursor, now] to exactly one stage, so the
    // stages telescope to done - intended.
    ses.op_id = ((static_cast<uint64_t>(first_global_session_) + s) << 32) |
                ses.op_count;
    ses.tr_stage = {};
    ses.tr_last = {};
    ses.tr_cursor = ses.intended;
    ChargeStage(ses, obs::RtraceStage::kBacklog, sim::Now());
  }
  ++ses.op_count;
  DrawKey(s);
  hotkeys_.Offer(ses.key_id);
  ses.retries_left = options_.op_retry_budget;
  // A scan only takes its home slot from the machine.
  ses.slot.Begin(SlotKindOf(ses.op), KeyView(ses.key_bytes),
                 options_.value_bytes);
  ses.io_next = 0;
  ses.step_error = false;
  ses.server_idx = ServerIndexOf(ses.slot.home());
  switch (admission_->TryAdmit(ses.server_idx, s)) {
    case Admit::kAdmit:
      BeginAdmitted(s);
      break;
    case Admit::kDefer:
      ses.phase = Phase::kDeferred;
      break;
    case Admit::kShed:
      ++stats_.shed;
      --open_ops_;
      ResolveObs();
      if (obs_shed_ != nullptr) obs_shed_->Inc();
      break;  // phase stays kIdle; caller loop starts the next backlog op
  }
}

void LoadEngine::BeginAdmitted(uint32_t s) {
  if (rtrace_ != nullptr) {
    // Zero when admission admitted synchronously; the FIFO defer wait
    // when this is the readmit callback of a released window slot.
    ChargeStage(sessions_[s], obs::RtraceStage::kAdmit, sim::Now());
  }
  if (sessions_[s].op == OpType::kScan) {
    StageScan(s);
  } else {
    StageStep(s);
  }
}

void LoadEngine::DrawKey(uint32_t s) {
  Session& ses = sessions_[s];
  ses.op = options_.mix.Pick(ses.rng);
  if (ses.op == OpType::kInsert) {
    // Globally unique fresh key: stripe the id space by session so no two
    // inserts ever collide.
    ses.key_id = options_.preload_keys +
                 ses.insert_seq * options_.sessions +
                 (first_global_session_ + s);
    ++ses.insert_seq;
  } else {
    ses.key_id = zipf_->Next();
  }
  EncodeKey(ses.key_id, ses.key_bytes);
}

// ---------------------------------------------------------------------------
// Op state machine: the slot protocol, run asynchronously.

void LoadEngine::StageStep(uint32_t s) {
  Session& ses = sessions_[s];
  const kv::SlotStep step = ses.slot.step();
  ++ses.gen;
  // A probe (the slot read, then the re-read of the version word it
  // starts with) rides one round trip when the slot lies in one slab: both
  // go to one QP, whose in-order execution makes the re-read the seqlock
  // validation. A slab-straddling slot may span QPs, so the pair then
  // splits into two round trips.
  uint32_t i = ses.io_next;
  for (;; ++i) {
    const kv::SlotIo& io = step.io[i];
    if (Status st = CollectPieces(io.offset, io.length, io.local); !st.ok()) {
      FinishOp(s, false);
      return;
    }
    const bool chained = i + 1 < step.count && pieces_.size() == 1;
    StagePieces(s, step.race, io, /*signaled=*/!chained);
    if (!chained) break;
  }
  ses.pending = static_cast<uint32_t>(pieces_.size());
  inflight_wrs_ += pieces_.size();
  ses.io_next = i + 1 < step.count ? i + 1 : 0;
  ses.phase = Phase::kSlot;
}

void LoadEngine::OnStepDone(uint32_t s) {
  Session& ses = sessions_[s];
  kv::SlotOp& op = ses.slot;
  switch (op.Complete()) {
    case kv::SlotResult::kNext:
      if (op.phase() == kv::SlotPhase::kWrite) {
        // The value is drawn from the session's stream as it is composed.
        const std::span<std::byte> value = op.value();
        ses.rng.Fill(value.data(), value.size());
      }
      StageStep(s);
      return;
    case kv::SlotResult::kTorn:      // torn or locked slot: re-probe it
    case kv::SlotResult::kLockHeld:  // someone holds the lock: re-peek
      RetryOp(s, /*backoff=*/true);
      return;
    case kv::SlotResult::kCasLost:
      // If the winner still holds the lock, back off; otherwise re-peek
      // immediately (same scheduling round).
      RetryOp(s, /*backoff=*/op.cas_winner_holds());
      return;
    case kv::SlotResult::kDone:
      break;
  }
  if (op.outcome() == kv::SlotOutcome::kClaimed) {
    // The slot changed hands between the probe and the lock (the lock is
    // released): walk the chain again from the home slot, which may have
    // shifted.
    op.Restart();
    RetryOp(s, /*backoff=*/true);
    return;
  }
  // A full probe window fails the op; a miss completes it as not found.
  FinishOp(s, op.outcome() != kv::SlotOutcome::kFull,
           /*found=*/op.outcome() != kv::SlotOutcome::kNotFound);
}

void LoadEngine::StageScan(uint32_t s) {
  Session& ses = sessions_[s];
  const uint64_t home = ses.slot.home();
  const uint64_t count = std::min<uint64_t>(std::max(options_.scan_len, 1u),
                                            geometry_.buckets - home);
  const kv::SlotIo run{kv::SlotIo::Op::kRead, SlotOffset(home),
                       static_cast<uint32_t>(count * geometry_.slot_bytes),
                       Scratch(s)};
  if (Status st = CollectPieces(run.offset, run.length, run.local);
      !st.ok()) {
    FinishOp(s, false);
    return;
  }
  ++ses.gen;
  StagePieces(s, Lane::kSpeculative, run, /*signaled=*/true);
  ses.pending = static_cast<uint32_t>(pieces_.size());
  inflight_wrs_ += pieces_.size();
  ses.phase = Phase::kScan;
}

// ---------------------------------------------------------------------------
// Op state machine: completion handling.

void LoadEngine::HandleCompletion(const verbs::WorkCompletion& wc) {
  const auto s = static_cast<uint32_t>(wc.wr_id >> 32);
  const auto gen = static_cast<uint32_t>(wc.wr_id & 0xffffffffu);
  if (inflight_wrs_ > 0) --inflight_wrs_;
  if (s >= sessions_.size()) {
    ++stats_.stale_completions;
    return;
  }
  Session& ses = sessions_[s];
  if (gen != ses.gen || ses.pending == 0) {
    ++stats_.stale_completions;
    return;
  }
  --ses.pending;
  if (!wc.ok()) ses.step_error = true;
  if (ses.pending > 0) return;  // multi-piece step still draining
  if (rtrace_ != nullptr) {
    ChargeWireStages(ses, wc.stamps, sim::Now());
  }
  if (ses.step_error) {
    FinishOp(s, false);
    return;
  }
  switch (ses.phase) {
    case Phase::kSlot:
      if (ses.io_next > 0) {
        StageStep(s);  // the second round trip of a split step
      } else {
        OnStepDone(s);
      }
      break;
    case Phase::kScan:
      // Best-effort snapshot scan (no per-slot seqlock validation); the
      // read itself rode the speculative lane so rcheck knows it may race.
      FinishOp(s, true);
      break;
    default:
      ++stats_.stale_completions;
      break;
  }
}

void LoadEngine::RetryOp(uint32_t s, bool backoff) {
  Session& ses = sessions_[s];
  ++stats_.retries;
  if (ses.retries_left == 0) {
    FinishOp(s, false);
    return;
  }
  --ses.retries_left;
  // The machine already stands at the step to retry: the torn slot, or
  // the lock peek of the known target.
  if (backoff) {
    ses.phase = Phase::kBackoff;
    retries_.push({sim::Now() + options_.retry_backoff, s});
    return;
  }
  StageStep(s);
}

void LoadEngine::OnRetryTimer(uint32_t s) {
  Session& ses = sessions_[s];
  if (ses.phase != Phase::kBackoff) {
    ++stats_.stale_completions;
    return;
  }
  if (rtrace_ != nullptr) {
    ChargeStage(ses, obs::RtraceStage::kBackoff, sim::Now());
  }
  StageStep(s);
}

void LoadEngine::FinishOp(uint32_t s, bool ok, bool found) {
  Session& ses = sessions_[s];
  const sim::Nanos now = sim::Now();
  const int64_t readmit = admission_->Release(ses.server_idx);
  // rlin history capture, before StartNextFromBacklog can reuse the
  // session's scratch. The invocation edge is the coordinated-omission
  // anchor (ses.intended): widening the interval only adds legal
  // linearization orders, so this stays sound (zero false positives)
  // while it may mask violations an exact-send anchor would expose.
  // Shed and never-admitted deferred ops never reach FinishOp, so they
  // never appear as completed responses. Scans are not single-register
  // ops and are skipped.
  if (lin_ != nullptr && ses.op != OpType::kScan) {
    const uint32_t lin_client = first_global_session_ + s;
    // Registers are named by the key's hash, as KvStore names them, so
    // one history can hold both dataplanes' ops on a table.
    const uint64_t lin_key = StableHash64(KeyView(ses.key_bytes));
    const auto inv = static_cast<uint64_t>(ses.intended);
    // The slot image still holds the value found or written.
    const std::span<const std::byte> value = ses.slot.value();
    const uint64_t digest =
        check::LinChecker::Digest(value.data(), value.size());
    const kv::SlotOutcome outcome = ses.slot.outcome();
    const kv::SlotPhase phase = ses.slot.phase();
    if (ok) {
      // A read includes an rmw that found no mapping.
      lin_->RecordOp(lin_client,
                     outcome == kv::SlotOutcome::kWritten
                         ? check::LinOpKind::kWrite
                         : check::LinOpKind::kRead,
                     lin_key, found ? digest : check::kLinAbsent, inv,
                     static_cast<uint64_t>(now));
    } else if (phase == kv::SlotPhase::kWrite ||
               outcome == kv::SlotOutcome::kWritten) {
      // The op failed after its payload write was posted: the value may
      // or may not be visible to readers. Pending = may linearize at any
      // point after invocation, or never.
      lin_->RecordPending(lin_client, check::LinOpKind::kWrite, lin_key,
                          digest, inv);
    }
  }
  if (ok) {
    ++stats_.completed;
    ++stats_.completed_by_type[static_cast<uint32_t>(ses.op)];
    if (!found) ++stats_.not_found;
    const uint64_t latency = now - ses.intended;
    stats_.latency.Add(latency);
    if (ses.op == OpType::kRead || ses.op == OpType::kScan) {
      stats_.read_latency.Add(latency);
    } else {
      stats_.write_latency.Add(latency);
    }
    stats_.drained_at = now;
    ResolveObs();
    if (obs_latency_ != nullptr) {
      obs_latency_->Record(latency);
      obs_completed_->Inc();
    }
    if (rtrace_ != nullptr) {
      // Residue between the last stage charge and completion (zero when
      // the op finished inside a completion handler) lands in cqpoll, so
      // the stages sum exactly to `latency`.
      ChargeStage(ses, obs::RtraceStage::kCqPoll, now);
      obs::RtraceOp rec;
      rec.op_id = ses.op_id;
      rec.kind = static_cast<uint8_t>(ses.op);
      rec.server_node = server_nodes_[ses.server_idx];
      rec.intended_ns = static_cast<uint64_t>(ses.intended);
      rec.done_ns = static_cast<uint64_t>(now);
      rec.stage_ns = ses.tr_stage;
      rec.posted_ns = static_cast<uint64_t>(ses.tr_last.posted);
      rec.first_bit_ns = static_cast<uint64_t>(ses.tr_last.first_bit);
      rec.executed_ns = static_cast<uint64_t>(ses.tr_last.executed);
      rtrace_->Record(rtrace_seq_++, rec);
    }
  } else {
    ++stats_.errors;
  }
  --open_ops_;
  ses.phase = Phase::kIdle;
  StartNextFromBacklog(s);
  if (readmit >= 0) BeginAdmitted(static_cast<uint32_t>(readmit));
}

void LoadEngine::ChargeStage(Session& ses, obs::RtraceStage stage,
                             sim::Nanos now) {
  if (now > ses.tr_cursor) {
    ses.tr_stage[static_cast<uint32_t>(stage)] +=
        static_cast<uint64_t>(now - ses.tr_cursor);
    ses.tr_cursor = now;
  }
}

void LoadEngine::ChargeWireStages(Session& ses,
                                  const verbs::WireStamps& stamps,
                                  sim::Nanos now) {
  // Subdivide [tr_cursor, now] by the step's stamp chain. Each stamp is
  // clamped monotone into the interval, so absent stamps (loopback steps
  // never enter the port model; the wire stages collapse to zero width)
  // and any residue still telescope: the charges sum to now - tr_cursor.
  sim::Nanos cur = ses.tr_cursor;
  const auto charge = [&](obs::RtraceStage stage, sim::Nanos at) {
    const sim::Nanos t = std::clamp(at, cur, now);
    ses.tr_stage[static_cast<uint32_t>(stage)] +=
        static_cast<uint64_t>(t - cur);
    cur = t;
  };
  charge(obs::RtraceStage::kMux, stamps.posted);
  charge(obs::RtraceStage::kEgress, stamps.tx_start);
  charge(obs::RtraceStage::kWire, stamps.first_bit);
  charge(obs::RtraceStage::kServer, stamps.executed);
  charge(obs::RtraceStage::kAck, stamps.pushed);
  charge(obs::RtraceStage::kCqPoll, now);
  ses.tr_cursor = now;
  ses.tr_last = stamps;
}

// ---------------------------------------------------------------------------
// Main loop.

Status LoadEngine::Run() {
  RSTORE_RETURN_IF_ERROR(Setup());
  // Cross-engine start barrier: arrival schedules of every engine share
  // the same t0, so offered load aggregates as configured.
  RSTORE_RETURN_IF_ERROR(client_.NotifyInc("e13.armed"));
  RSTORE_ASSIGN_OR_RETURN(uint64_t armed,
                          client_.WaitNotify("e13.armed", engine_count_));
  (void)armed;
  t0_ = sim::Now();
  t_end_ = t0_ + options_.duration;
  stats_.window_start = t0_;
  ScheduleFirstArrivals();
  Status st = RunLoop();
  stats_.admission = admission_->stats();
  stats_.mux = mux_.stats();
  stats_.hotkeys = hotkeys_.TopK();
  ResolveObs();
  if (obs_owner_ != nullptr) {
    // Heavy hitters as gauges: rank-indexed so the merged metrics JSON
    // carries the sketch without a dedicated export path.
    obs::NodeMetrics& m =
        obs_owner_->metrics().ForNode(client_.device().node_id());
    for (size_t r = 0; r < stats_.hotkeys.size(); ++r) {
      const std::string prefix = "load.hotkeys." + std::to_string(r);
      m.GetGauge(prefix + ".key_id")
          .Set(static_cast<int64_t>(stats_.hotkeys[r].key_id));
      m.GetGauge(prefix + ".count")
          .Set(static_cast<int64_t>(stats_.hotkeys[r].count));
    }
  }
  if (rtrace_ != nullptr) {
    stats_.rtrace = rtrace_->Finalize();
    // Post-run span/flow export: recording order is a pure function of
    // the kept set, never of the schedule.
    if (obs_owner_ != nullptr && obs_owner_->tracing()) {
      obs::EmitRtraceTrace(obs_owner_->tracer(), stats_.rtrace,
                           client_.device().node_id());
    }
  }
  return st;
}

namespace {

// Deliveries that share a virtual instant reach the CQ in epoch-merge
// order — (source partition, post order) — which records which server's
// partition answered first, not anything the engine decided. Sorting the
// batch by completion cookie makes processing a pure function of the
// batch contents. The sort is part of the timeline: handling the batch in
// merge order instead would reorder session work and move virtual time.
// stable_sort: split-probe pieces share one cookie and their handling is
// commutative, but keeping their relative order costs nothing.
void SortBatch(std::vector<verbs::WorkCompletion>& wcs) {
  std::stable_sort(wcs.begin(), wcs.end(),
                   [](const verbs::WorkCompletion& a,
                      const verbs::WorkCompletion& b) {
                     return a.wr_id < b.wr_id;
                   });
}

}  // namespace

Status LoadEngine::RunLoop() {
  std::vector<verbs::WorkCompletion> wcs;
  wcs.reserve(256);
  while (true) {
    const sim::Nanos now = sim::Now();
    uint64_t steps = 0;
    while (!retries_.empty() && retries_.top().at <= now) {
      const uint32_t s = retries_.top().session;
      retries_.pop();
      OnRetryTimer(s);
      ++steps;
    }
    while (!arrivals_.empty() && arrivals_.top().at <= now) {
      const TimerEntry e = arrivals_.top();
      arrivals_.pop();
      OnArrival(e.session, e.at);
      ++steps;
    }
    wcs.clear();
    if (inflight_wrs_ > 0) {
      // End-of-instant barrier before polling: a completion due *at* this
      // instant may still be behind this thread's wake in the event queue
      // (whether it is depends on same-instant tie order). Yielding
      // reposts the wake behind every already-queued same-instant event,
      // so the batch below holds exactly the completions due by `now`.
      // The barrier is part of the timeline: without it those stragglers
      // would wait for a later round.
      sim::Yield();
      mux_.PollInto(wcs);
      SortBatch(wcs);
    }
    for (const verbs::WorkCompletion& wc : wcs) {
      HandleCompletion(wc);
      ++steps;
    }
    if (steps > 0) {
      // One flush per scheduling round: every WR the round staged rides
      // one doorbell chain per (QP, lane) — chains widen exactly as load
      // rises. The modeled CPU charge keeps virtual time honest about
      // the session work this round did.
      stats_.steps += steps;
      if (options_.session_step_ns > 0) {
        sim::ChargeCpu(steps * options_.session_step_ns);
      }
      RSTORE_ASSIGN_OR_RETURN(size_t posted, mux_.Flush());
      (void)posted;
      continue;
    }
    if (open_ops_ == 0 && arrivals_.empty() && retries_.empty()) break;
    sim::Nanos next = sim::kNever;
    if (!arrivals_.empty()) next = arrivals_.top().at;
    if (!retries_.empty()) next = std::min(next, retries_.top().at);
    if (inflight_wrs_ > 0) {
      wcs.clear();
      const sim::Nanos timeout =
          next == sim::kNever ? sim::kNever : next - now;
      mux_.WaitPollInto(wcs, Moderation(), timeout);
      if (!wcs.empty()) {
        // Same end-of-instant barrier as above: the CQ wake that ended
        // the wait may precede sibling deliveries at this instant.
        sim::Yield();
        mux_.PollInto(wcs);  // appends the stragglers
        SortBatch(wcs);
      }
      for (const verbs::WorkCompletion& wc : wcs) HandleCompletion(wc);
      if (!wcs.empty()) {
        stats_.steps += wcs.size();
        if (options_.session_step_ns > 0) {
          sim::ChargeCpu(wcs.size() * options_.session_step_ns);
        }
        RSTORE_ASSIGN_OR_RETURN(size_t posted, mux_.Flush());
        (void)posted;
      }
      continue;
    }
    if (next != sim::kNever) {
      sim::Sleep(next - now);
      continue;
    }
    // Open ops but no WRs in flight and no timers: every path that parks
    // an op either holds a WR, a timer, or an admission slot whose
    // releaser holds one — reaching here means the machine leaked a step.
    return Status(ErrorCode::kInternal, "load engine stalled with open ops");
  }
  return Status::Ok();
}

}  // namespace rstore::load
