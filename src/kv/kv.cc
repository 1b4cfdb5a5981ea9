#include "kv/kv.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "check/check.h"
#include "common/rng.h"
#include "sim/cost_model.h"
#include "sim/simulation.h"

namespace rstore::kv {
namespace {

// Per-operation telemetry: bumps a call counter and records the op's
// virtual-time latency on destruction. Inert when no Telemetry is
// attached to the simulation.
struct OpObs {
  OpObs(core::RStoreClient& client, const char* counter, const char* timer)
      : tel(client.device().network().sim().telemetry()) {
    if (tel != nullptr) {
      node = client.device().node_id();
      obs::NodeMetrics& m = tel->metrics().ForNode(node);
      calls = &m.GetCounter(counter);
      latency = &m.GetTimer(timer);
      t0 = tel->NowNs();
    }
  }
  ~OpObs() {
    if (tel != nullptr) {
      calls->Inc();
      latency->Record(tel->NowNs() - t0);
    }
  }
  OpObs(const OpObs&) = delete;
  OpObs& operator=(const OpObs&) = delete;

  obs::Telemetry* tel;
  uint32_t node = 0;
  obs::Counter* calls = nullptr;
  obs::Timer* latency = nullptr;
  uint64_t t0 = 0;
};

// KvStore's conflict policy (see kv.h).
constexpr int kMaxAttempts = 64;
constexpr sim::Nanos kConflictBackoff = sim::Micros(5);

}  // namespace

KvStore::KvStore(core::RStoreClient& client, core::MappedRegion* region,
                 KvOptions options)
    : client_(client), region_(region), options_(options) {}

Result<std::unique_ptr<KvStore>> KvStore::Make(core::RStoreClient& client,
                                               core::MappedRegion* region,
                                               KvOptions options) {
  auto store = std::unique_ptr<KvStore>(new KvStore(client, region, options));
  RSTORE_ASSIGN_OR_RETURN(
      store->io_buf_,
      client.AllocBuffer(options.slot_bytes + SlotOp::kCellBytes));
  std::byte* image = store->io_buf_.begin();
  store->op_ = SlotOp(store->options_, image, image + options.slot_bytes);
  return store;
}

Result<std::unique_ptr<KvStore>> KvStore::Create(core::RStoreClient& client,
                                                 const std::string& name,
                                                 KvOptions options) {
  if (options.buckets == 0 || options.slot_bytes <= SlotLayout::kSlotHeader ||
      options.max_probe == 0) {
    return Result<std::unique_ptr<KvStore>>(ErrorCode::kInvalidArgument,
                                            "bad table geometry");
  }
  const uint64_t bytes =
      SlotLayout::kHeaderBytes + options.buckets * options.slot_bytes;
  RSTORE_RETURN_IF_ERROR(client.Ralloc(name, bytes));
  auto region = client.Rmap(name);
  if (!region.ok()) return region.status();

  // Slots rely on the arena being zero-initialized (version 0 = never
  // used).
  auto hdr = client.AllocBuffer(SlotLayout::kHeaderBytes);
  if (!hdr.ok()) return hdr.status();
  SlotLayout::WriteHeader(hdr->begin(), options);
  RSTORE_RETURN_IF_ERROR((*region)->Write(0, hdr->data));
  return Make(client, *region, options);
}

Result<std::unique_ptr<KvStore>> KvStore::Open(core::RStoreClient& client,
                                               const std::string& name,
                                               uint32_t cache_slots) {
  auto region = client.Rmap(name);
  if (!region.ok()) return region.status();
  auto hdr = client.AllocBuffer(SlotLayout::kHeaderBytes);
  if (!hdr.ok()) return hdr.status();
  RSTORE_RETURN_IF_ERROR((*region)->Read(0, hdr->data));
  KvOptions options;
  if (!SlotLayout::ReadHeader(hdr->begin(), &options)) {
    return Result<std::unique_ptr<KvStore>>(
        ErrorCode::kInvalidArgument,
        "region '" + name + "' does not hold an RKV table");
  }
  options.cache_slots = cache_slots;  // client-local, not table geometry
  return Make(client, *region, options);
}

void KvStore::CacheStore(uint64_t slot, uint64_t version,
                         const std::byte* bytes) {
  auto it = slot_cache_.find(slot);
  if (it == slot_cache_.end()) {
    if (slot_cache_.size() >= options_.cache_slots) {
      const uint64_t victim = slot_lru_.back();
      slot_lru_.pop_back();
      slot_cache_.erase(victim);
    }
    slot_lru_.push_front(slot);
    it = slot_cache_.emplace(slot, CachedSlot{}).first;
    it->second.lru = slot_lru_.begin();
    it->second.bytes.resize(options_.slot_bytes);
  } else if (it->second.lru != slot_lru_.begin()) {
    slot_lru_.splice(slot_lru_.begin(), slot_lru_, it->second.lru);
  }
  it->second.version = version;
  std::memcpy(it->second.bytes.data(), bytes, options_.slot_bytes);
  // Populating the cache copies a slot locally; never free.
  sim::ChargeCpu(sim::CacheCopyCost(client_.device().network().cpu_model(),
                                    options_.slot_bytes));
}

void KvStore::CacheErase(uint64_t slot) {
  auto it = slot_cache_.find(slot);
  if (it == slot_cache_.end()) return;
  slot_lru_.erase(it->second.lru);
  slot_cache_.erase(it);
  ++stats_.cache_invalidations;
}

Status KvStore::ExecuteIo(const SlotIo& io) {
  switch (io.op) {
    case SlotIo::Op::kRead:
      return region_->Read(io.offset,
                           std::span<std::byte>(io.local, io.length));
    case SlotIo::Op::kWrite:
      return region_->Write(io.offset,
                            std::span<const std::byte>(io.local, io.length));
    case SlotIo::Op::kCompareSwap: {
      RSTORE_ASSIGN_OR_RETURN(
          const uint64_t old,
          region_->CompareSwap(io.offset, io.compare, io.swap));
      std::memcpy(io.local, &old, sizeof(old));
      return Status::Ok();
    }
  }
  return Status(ErrorCode::kInternal, "unknown slot IO");
}

Status KvStore::Execute(const SlotStep& step, bool* from_cache) {
  check::Checker* checker = client_.device().network().sim().checker();
  std::optional<check::SpeculativeScope> speculative;
  std::optional<check::SyncCellScope> sync_cell;
  if (step.race == SlotRace::kSpeculative) speculative.emplace(checker);
  if (step.race == SlotRace::kSyncCell) sync_cell.emplace(checker);
  if (op_.phase() == SlotPhase::kProbe && options_.cache_slots > 0) {
    // Validate-on-hit performs only the probe's version re-read: a version
    // equal to the cached (validated, even) one means the remote slot
    // still holds the cached bytes, as every writer bumps the version.
    const uint64_t slot = op_.slot();
    auto it = slot_cache_.find(slot);
    if (it != slot_cache_.end()) {
      RSTORE_RETURN_IF_ERROR(ExecuteIo(step.io[1]));
      uint64_t current = 0;
      std::memcpy(&current, step.io[1].local, sizeof(current));
      if (current == it->second.version) {
        ++stats_.cache_hits;
        std::memcpy(step.io[0].local, it->second.bytes.data(),
                    options_.slot_bytes);
        sim::ChargeCpu(sim::CacheCopyCost(
            client_.device().network().cpu_model(), options_.slot_bytes));
        if (it->second.lru != slot_lru_.begin()) {
          slot_lru_.splice(slot_lru_.begin(), slot_lru_, it->second.lru);
        }
        *from_cache = true;
        return Status::Ok();
      }
      // Stale (a writer moved the version): drop and fall through.
      CacheErase(slot);
    }
    ++stats_.cache_misses;
  }
  for (uint32_t i = 0; i < step.count; ++i) {
    RSTORE_RETURN_IF_ERROR(ExecuteIo(step.io[i]));
  }
  return Status::Ok();
}

Status KvStore::Drive(std::span<const std::byte> value) {
  int torn = 0;        // torn reads of the current slot (Get)
  int lock_tries = 0;  // failed attempts at the seqlock
  while (true) {
    const SlotPhase phase = op_.phase();
    const uint64_t slot = op_.slot();
    if (phase == SlotPhase::kProbe || phase == SlotPhase::kRecheck) {
      ++stats_.probe_reads;
    }
    if (phase == SlotPhase::kWrite) lin_wrote_payload_ = true;
    bool from_cache = false;
    if (Status st = Execute(op_.step(), &from_cache); !st.ok()) {
      if (phase == SlotPhase::kWrite) {
        op_.Release();
        (void)Execute(op_.step(), &from_cache);
      }
      return st;
    }
    const SlotResult result = op_.Complete();
    if (phase == SlotPhase::kProbe && result != SlotResult::kTorn &&
        !from_cache && options_.cache_slots > 0) {
      CacheStore(slot, op_.version(), io_buf_.begin());
    }
    switch (result) {
      case SlotResult::kNext:
        torn = 0;
        if (op_.phase() == SlotPhase::kWrite) {
          std::copy(value.begin(), value.end(), op_.value().begin());
        }
        break;
      case SlotResult::kTorn:
        ++stats_.version_retries;
        if (op_.kind() != SlotOp::Kind::kGet) {
          // Put and Delete skip a slot whose seqlock is held, as if it held
          // another key. Nothing re-checks that choice: when the skipped
          // slot held this key, a Put goes on to claim a later reusable
          // slot and succeeds, leaving the key in two slots, and a Delete
          // may report kNotFound or tombstone only one of them.
          if (op_.Skip() == SlotResult::kDone) return Status::Ok();
          break;
        }
        sim::Sleep(kConflictBackoff);
        if (++torn == kMaxAttempts) {
          return Status(ErrorCode::kAborted, "slot is being written");
        }
        break;
      case SlotResult::kLockHeld:
        sim::Sleep(kConflictBackoff);
        [[fallthrough]];
      case SlotResult::kCasLost:  // re-peek at once
        ++stats_.version_retries;
        if (++lock_tries == kMaxAttempts) {
          return Status(ErrorCode::kAborted,
                        "could not take slot seqlock (hot contention)");
        }
        break;
      case SlotResult::kDone:
        return Status::Ok();
    }
  }
}

// rlin history capture (see check/lin.h): each public op wrapper records
// one (kind, key-hash, value-digest, [inv, resp]) entry with a
// LinChecker when one is attached to the simulation. Pure host-side
// observation — no simulator events, RNG draws, or cost charges — so
// virtual time is bit-identical with the checker on or off; with no
// checker attached the wrappers cost one pointer compare.
Result<std::vector<std::byte>> KvStore::Get(std::string_view key) {
  check::LinChecker* lin = client_.device().network().sim().lin();
  if (lin == nullptr) return GetImpl(key);
  const uint64_t inv = BeginLin();
  Result<std::vector<std::byte>> r = GetImpl(key);
  RecordLin(lin, inv, key, r.status(), check::LinOpKind::kRead,
            r.ok() ? check::LinChecker::Digest(r->data(), r->size()) : 0);
  return r;
}

Status KvStore::Put(std::string_view key, std::span<const std::byte> value) {
  check::LinChecker* lin = client_.device().network().sim().lin();
  if (lin == nullptr) return PutImpl(key, value);
  const uint64_t inv = BeginLin();
  const Status st = PutImpl(key, value);
  RecordLin(lin, inv, key, st, check::LinOpKind::kWrite,
            check::LinChecker::Digest(value.data(), value.size()));
  return st;
}

Status KvStore::Delete(std::string_view key) {
  check::LinChecker* lin = client_.device().network().sim().lin();
  if (lin == nullptr) return DeleteImpl(key);
  const uint64_t inv = BeginLin();
  const Status st = DeleteImpl(key);
  // Delete is a write of "absent".
  RecordLin(lin, inv, key, st, check::LinOpKind::kWrite, check::kLinAbsent);
  return st;
}

uint64_t KvStore::BeginLin() {
  lin_wrote_payload_ = false;
  return static_cast<uint64_t>(client_.device().network().sim().NowNanos());
}

void KvStore::RecordLin(check::LinChecker* lin, uint64_t inv,
                        std::string_view key, const Status& st,
                        check::LinOpKind kind, uint64_t digest) const {
  const auto resp =
      static_cast<uint64_t>(client_.device().network().sim().NowNanos());
  const uint32_t node = client_.device().node_id();
  const uint64_t k = StableHash64(key);
  if (st.ok()) {
    lin->RecordOp(node, kind, k, digest, inv, resp);
  } else if (st.code() == ErrorCode::kNotFound) {
    // Observed no mapping for the key: a read of absent.
    lin->RecordOp(node, check::LinOpKind::kRead, k, check::kLinAbsent, inv,
                  resp);
  } else if (lin_wrote_payload_) {
    // The payload write was posted before the failure: the value may or
    // may not be visible. Pending = may linearize any time >= inv, or
    // never.
    lin->RecordPending(node, check::LinOpKind::kWrite, k, digest, inv);
  }
  // Other failures returned no answer and wrote nothing: legal to drop.
}

void KvStore::AttributeHome(obs::ObsSpan& span) const {
  if (!span.active()) return;
  // Server attribution: the home slot's owner serves (almost) every probe
  // of the op, so rtrace flows and kv spans agree on the target.
  span.Arg("home_slot", static_cast<double>(op_.home()));
  if (auto sp = region_->Resolve(
          SlotLayout::SlotOffset(op_.home(), options_.slot_bytes), 8);
      sp.ok()) {
    span.Arg("server_node", static_cast<double>(sp->server_node));
  }
}

Result<std::vector<std::byte>> KvStore::GetImpl(std::string_view key) {
  ++stats_.gets;
  check::OpLabelScope label(client_.device().network().sim().checker(),
                            "kv.get");
  OpObs obs(client_, "kv.gets", "kv.get_ns");
  obs::ObsSpan span(obs.tel, obs.node, "app", "kv.get");
  op_.Begin(SlotOp::Kind::kGet, key, 0);
  AttributeHome(span);
  RSTORE_RETURN_IF_ERROR(Drive({}));
  if (op_.outcome() != SlotOutcome::kFound) {
    return Result<std::vector<std::byte>>(ErrorCode::kNotFound,
                                          "key not found");
  }
  const std::span<const std::byte> value = op_.value();
  return std::vector<std::byte>(value.begin(), value.end());
}

Status KvStore::PutImpl(std::string_view key,
                        std::span<const std::byte> value) {
  ++stats_.puts;
  check::OpLabelScope label(client_.device().network().sim().checker(),
                            "kv.put");
  OpObs obs(client_, "kv.puts", "kv.put_ns");
  obs::ObsSpan span(obs.tel, obs.node, "app", "kv.put");
  if (key.empty() ||
      SlotLayout::kSlotHeader + key.size() + value.size() >
          options_.slot_bytes) {
    return Status(ErrorCode::kInvalidArgument,
                  "key/value exceed slot capacity");
  }
  op_.Begin(SlotOp::Kind::kPut, key, static_cast<uint32_t>(value.size()));
  AttributeHome(span);
  RSTORE_RETURN_IF_ERROR(Drive(value));
  switch (op_.outcome()) {
    case SlotOutcome::kFull:
      return Status(ErrorCode::kOutOfMemory, "probe window full");
    case SlotOutcome::kClaimed:
      return Status(ErrorCode::kAborted,
                    "slot claimed concurrently; retry the put");
    default:
      break;
  }
  if (options_.cache_slots > 0) {
    // The machine's image is now exactly the remote slot (the bytes just
    // written over the recheck read, under the released version), so the
    // next GET of this key hits.
    CacheStore(op_.slot(), op_.version(), io_buf_.begin());
  }
  return Status::Ok();
}

Status KvStore::DeleteImpl(std::string_view key) {
  ++stats_.deletes;
  check::OpLabelScope label(client_.device().network().sim().checker(),
                            "kv.delete");
  op_.Begin(SlotOp::Kind::kDelete, key, 0);
  const Status st = Drive({});
  if (op_.outcome() == SlotOutcome::kWritten) CacheErase(op_.slot());
  RSTORE_RETURN_IF_ERROR(st);
  switch (op_.outcome()) {
    case SlotOutcome::kNotFound:
      return Status(ErrorCode::kNotFound, "key not found");
    case SlotOutcome::kVanished:
      return Status(ErrorCode::kNotFound, "key vanished during delete");
    default:
      return Status::Ok();
  }
}

}  // namespace rstore::kv
