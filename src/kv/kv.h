// RKV: a key-value store built entirely on the RStore memory-like API —
// the kind of client-side data structure the paper's abstract positions
// RStore for ("a DRAM-based data store ... unique memory-like API").
//
// Design (Pilaf/FaRM-flavoured, all client-side):
//   * one RStore region holds a fixed-size open-addressing hash table;
//     slot i lives at a fixed byte offset, so every operation translates
//     to one-sided IO against computable addresses;
//   * each slot is guarded by an RDMA seqlock: an 8-byte version word
//     that writers take odd via remote compare-and-swap and release even
//     (+2) after the payload write. Readers validate that the version
//     was even and unchanged around the payload read, so torn reads
//     retry instead of returning garbage;
//   * collisions use linear probing with tombstones; a never-used slot
//     terminates a probe chain.
//
// The slot protocol is the IO-free machine in kv/slot_op.h. KvStore runs
// it blocking over MappedRegion, with a validate-on-hit slot cache in
// front of the probe reads and its own conflict policy (Drive in kv.cc;
// DESIGN.md compares it with LoadEngine's): a Get re-reads a torn slot, a
// Put or Delete skips it, and taking the lock gives up after 64 attempts.
//
// Every client maps the region once and then operates with no master
// involvement: GET costs one slot read (plus a version validate), PUT a
// CAS + two writes. Multiple clients on multiple machines can operate
// concurrently on the same table.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "check/lin.h"
#include "common/status.h"
#include "core/client.h"
#include "kv/slot_op.h"
#include "obs/trace.h"

namespace rstore::kv {

struct KvStats {
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t deletes = 0;
  uint64_t probe_reads = 0;     // slot reads issued (≥ ops)
  uint64_t version_retries = 0; // seqlock conflicts observed
  uint64_t cache_hits = 0;      // slot reads served locally (validated)
  uint64_t cache_misses = 0;    // lookups that fell back to a full read
  uint64_t cache_invalidations = 0;  // entries dropped (delete/stale)
};

class KvStore {
 public:
  // Creates a new table in a fresh region named `name`.
  static Result<std::unique_ptr<KvStore>> Create(core::RStoreClient& client,
                                                 const std::string& name,
                                                 KvOptions options = {});
  // Opens an existing table (reads its header from the region).
  // `cache_slots` is this client's local slot-cache size; the table
  // geometry always comes from the header.
  static Result<std::unique_ptr<KvStore>> Open(core::RStoreClient& client,
                                               const std::string& name,
                                               uint32_t cache_slots = 0);

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  // Returns the value, or kNotFound.
  Result<std::vector<std::byte>> Get(std::string_view key);
  // Inserts or overwrites. Fails with kOutOfMemory when the probe window
  // is full, kInvalidArgument when key+value exceed the slot.
  Status Put(std::string_view key, std::span<const std::byte> value);
  Status Put(std::string_view key, std::string_view value) {
    return Put(key, std::span<const std::byte>(
                        reinterpret_cast<const std::byte*>(value.data()),
                        value.size()));
  }
  // Removes the key; kNotFound if absent.
  Status Delete(std::string_view key);

  [[nodiscard]] const KvStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const KvOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] uint32_t max_value_bytes() const noexcept {
    return options_.slot_bytes - SlotLayout::kSlotHeader;
  }

 private:
  KvStore(core::RStoreClient& client, core::MappedRegion* region,
          KvOptions options);
  // Allocates the IO buffer and binds the slot machine to it.
  static Result<std::unique_ptr<KvStore>> Make(core::RStoreClient& client,
                                               core::MappedRegion* region,
                                               KvOptions options);

  // Runs op_ to completion with blocking IO and KvStore's conflict
  // policy, filling a payload's value bytes from `value`. OK means
  // op_.outcome() is final; an error is an IO failure or a conflict that
  // outlasted its retries.
  Status Drive(std::span<const std::byte> value);
  // Performs `step` under the rcheck scope of its race class. A probe is
  // served from the slot cache when the cached image is current, and then
  // sets *from_cache.
  Status Execute(const SlotStep& step, bool* from_cache);
  Status ExecuteIo(const SlotIo& io);

  // Adds the home slot and its server to an active kv span.
  void AttributeHome(obs::ObsSpan& span) const;
  // rlin capture around an op: BeginLin returns the invocation time;
  // RecordLin records an OK op as `kind` with `digest`, kNotFound as a
  // read of absent, and a failure after the payload write as a pending
  // write of `digest`.
  uint64_t BeginLin();
  void RecordLin(check::LinChecker* lin, uint64_t inv, std::string_view key,
                 const Status& st, check::LinOpKind kind,
                 uint64_t digest) const;

  // Op bodies; the public wrappers add rlin history capture (observe-only,
  // see check/lin.h) around them when the simulation has a LinChecker.
  Result<std::vector<std::byte>> GetImpl(std::string_view key);
  Status PutImpl(std::string_view key, std::span<const std::byte> value);
  Status DeleteImpl(std::string_view key);

  // Slot-cache bookkeeping (only active when options_.cache_slots > 0).
  struct CachedSlot {
    uint64_t version = 0;
    std::vector<std::byte> bytes;  // full slot image at `version`
    std::list<uint64_t>::iterator lru;
  };
  // Upserts the cache entry for `slot` (LRU-evicting at capacity).
  void CacheStore(uint64_t slot, uint64_t version, const std::byte* bytes);
  void CacheErase(uint64_t slot);

  core::RStoreClient& client_;
  core::MappedRegion* region_;
  KvOptions options_;
  core::PinnedBuffer io_buf_{};  // the slot image, then the machine's cells
  SlotOp op_;
  std::unordered_map<uint64_t, CachedSlot> slot_cache_;
  std::list<uint64_t> slot_lru_;  // front = most recently used
  KvStats stats_;
  // Set by Drive once the payload/tombstone write has been posted: a
  // failure after this point leaves the op's effect undefined, so the
  // wrapper records it as *pending* (may have happened) rather than
  // dropping it. KvStore is client-thread-local, so a plain bool.
  bool lin_wrote_payload_ = false;
};

}  // namespace rstore::kv
