// The RKV slot protocol: one IO-free step machine that every dataplane over
// an RKV table drives. Each op walks the table (SlotLayout below) the same
// way: probe (read a slot, then re-read its version word: the seqlock
// check), lock (peek the version word, CAS it even -> odd), recheck (re-read
// the body under the lock, as another client may have claimed the slot),
// write the payload or a tombstone, release (version odd -> next even).
// SlotOp owns the slot bytes and every protocol decision: classification,
// the probe walk and target choice, seqlock validation, the recheck,
// composing payload and tombstone, and each step's rcheck race class. It
// performs no IO, never sleeps and never charges virtual time: step()
// names the next IO against the caller's buffers, the caller performs it,
// and Complete() takes the result. KvStore runs the machine blocking and
// LoadEngine asynchronously; how to respond to a conflict (retry, skip the
// slot or give up, and how long to wait) is each caller's own policy.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

namespace rstore::kv {

struct KvOptions {
  uint64_t buckets = 4096;   // slots in the table (fixed at create time)
  uint32_t slot_bytes = 256; // per-slot storage incl. 24-byte header
  uint32_t max_probe = 16;   // linear-probe window before "table full"
  // Client-local slot cache (0 = off; not part of the table geometry).
  // A cached slot is validated on every hit with one 8-byte remote read
  // of its seqlock word: version unchanged and even means the cached
  // payload is byte-identical to the remote slot, so a hot GET costs one
  // tiny read instead of a slot-sized read plus a validate read — and
  // linearizability is untouched because the validate is exactly the
  // seqlock check an uncached read performs.
  uint32_t cache_slots = 0;
};

// One parsed slot; `key` is empty for never-used slots and tombstones.
struct SlotView {
  uint64_t version = 0;
  std::string_view key;
  std::span<const std::byte> value;
  // A never-used slot ends every probe chain.
  [[nodiscard]] bool never_used() const noexcept {
    return version == 0 && key.empty();
  }
};

// The on-region table format. Offsets are within one slot:
//   0  u64 version   even = stable, odd = writer holds the seqlock;
//                    0 with key_len 0 = never used (ends probe chains)
//   8  u16 key_len   0 with version > 0 = tombstone
//  10  u16 (pad)
//  12  u32 val_len
//  16  (pad to 24)
//  24  key bytes, then value bytes
// The region starts with a 64-byte header: magic, buckets, slot_bytes,
// max_probe.
struct SlotLayout {
  static constexpr uint64_t kMagic = 0x524b563144424d53ULL;  // "RKV1DBMS"
  static constexpr uint64_t kHeaderBytes = 64;
  static constexpr uint32_t kSlotHeader = 24;
  static constexpr uint64_t kVersionOff = 0;
  static constexpr uint64_t kKeyLenOff = 8;
  static constexpr uint64_t kValLenOff = 12;
  static constexpr uint64_t kPayloadOff = 24;

  // Byte offset of `slot` within the region.
  [[nodiscard]] static constexpr uint64_t SlotOffset(
      uint64_t slot, uint32_t slot_bytes) noexcept {
    return kHeaderBytes + slot * slot_bytes;
  }
  // Home slot of a key (the probe chain starts here).
  [[nodiscard]] static uint64_t HomeSlot(std::string_view key,
                                         uint64_t buckets) noexcept;
  [[nodiscard]] static SlotView Parse(const std::byte* slot) noexcept;
  // Composes a slot image with `version`, `key` and room for `value_len`
  // value bytes into dst[0, slot_bytes), and returns the value bytes for
  // the caller to fill. Requires key and value to fit the slot.
  static std::span<std::byte> Compose(std::byte* dst, uint32_t slot_bytes,
                                      uint64_t version, std::string_view key,
                                      uint32_t value_len) noexcept;
  // The header: magic and table geometry in hdr[0, kHeaderBytes).
  static void WriteHeader(std::byte* hdr, const KvOptions& table) noexcept;
  // Reads the geometry into `table`; false when the magic is wrong.
  [[nodiscard]] static bool ReadHeader(const std::byte* hdr,
                                       KvOptions* table) noexcept;
};

// How rcheck must treat a step's remote accesses.
enum class SlotRace : uint8_t {
  kSpeculative,  // seqlock reads, racy by design; discarded when torn
  kPlain,        // checked data IO and the lock CAS (ordered by the lock)
  kSyncCell,     // the 8-byte release store of the seqlock word
};

// One IO of a step. `local` is the read destination, the write source or
// the 8-byte cell that receives a CAS's old value.
struct SlotIo {
  enum class Op : uint8_t { kRead, kWrite, kCompareSwap };
  Op op = Op::kRead;
  uint64_t offset = 0;  // byte offset within the table region
  uint32_t length = 0;
  std::byte* local = nullptr;
  uint64_t compare = 0;  // kCompareSwap: expected and desired words
  uint64_t swap = 0;
};

// One protocol step: one IO, or two that must execute in order (a probe
// reads the slot, then re-reads its version word).
struct SlotStep {
  SlotRace race = SlotRace::kPlain;
  uint32_t count = 0;
  std::array<SlotIo, 2> io{};
};

enum class SlotPhase : uint8_t {
  kProbe, kLockPeek, kLockCas, kRecheck, kWrite, kUnlock, kDone,
};

enum class SlotResult : uint8_t {
  kNext,      // the machine advanced; step() is the next IO
  kTorn,      // the probe raced a writer; step() re-reads the same slot
  kLockHeld,  // the peek saw the seqlock held; step() peeks again
  kCasLost,   // another writer's CAS won; step() peeks again
  kDone,      // outcome() is final
};

enum class SlotOutcome : uint8_t {
  kNone,      // still running, or released after a failed write
  kFound,     // get: value() holds the value
  kNotFound,  // get, update, delete: the key is absent
  kWritten,   // put, update, delete: written and released
  kFull,      // put: no reusable slot in the probe window
  kClaimed,   // put, update: the slot held another key under the lock
  kVanished,  // delete: the key left the slot before the lock
};

class SlotOp {
 public:
  enum class Kind : uint8_t {
    kGet,     // read the key's value
    kPut,     // insert or overwrite
    kUpdate,  // overwrite only if the key is present
    kDelete,  // replace the key with a tombstone
  };
  // The 8-byte cells: version re-read, CAS result, release word.
  static constexpr uint32_t kCellBytes = 24;

  SlotOp() = default;
  // `image` holds one slot, `cells` kCellBytes; both stay registered for
  // IO while ops run.
  SlotOp(const KvOptions& table, std::byte* image, std::byte* cells) noexcept
      : table_(&table), image_(image), cells_(cells) {}

  // Starts an op on `key`, which must outlive it. A put or update writes
  // `value_len` value bytes, which the caller fills into value() when
  // phase() becomes kWrite. Requires the key and value to fit a slot.
  void Begin(Kind kind, std::string_view key, uint32_t value_len) noexcept;
  // The next IO; only while phase() != kDone.
  [[nodiscard]] SlotStep step() const noexcept;
  // Takes the result of step(), which the caller has performed.
  SlotResult Complete() noexcept;
  // After kTorn: treats the slot as held by another key and moves on.
  SlotResult Skip() noexcept { return Advance(); }
  // After kClaimed: walks the probe chain again from the home slot.
  void Restart() noexcept;
  // After a failed write: step() becomes the release of the held lock.
  void Release() noexcept { (void)Unlock(outcome_); }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] SlotPhase phase() const noexcept { return phase_; }
  [[nodiscard]] SlotOutcome outcome() const noexcept { return outcome_; }
  [[nodiscard]] uint64_t home() const noexcept { return home_; }
  // The probed slot while probing, afterwards the slot being written.
  [[nodiscard]] uint64_t slot() const noexcept;
  // The image's version word: the validated version after a probe, the
  // released version once a write is done.
  [[nodiscard]] uint64_t version() const noexcept;
  // After kCasLost: whether the winner still holds the lock.
  [[nodiscard]] bool cas_winner_holds() const noexcept;
  // The image's value: a get's find, or the value a put is writing.
  [[nodiscard]] std::span<std::byte> value() const noexcept;

 private:
  SlotResult Advance() noexcept;
  SlotResult Lock(uint64_t slot) noexcept;
  SlotResult Unlock(SlotOutcome outcome) noexcept;
  SlotResult Finish(SlotOutcome outcome) noexcept;

  const KvOptions* table_ = nullptr;
  std::byte* image_ = nullptr;
  std::byte* cells_ = nullptr;
  std::string_view key_;
  uint64_t home_ = 0;
  uint64_t target_ = 0;     // slot being locked and written
  int64_t reusable_ = -1;   // first tombstone of the probe walk
  uint64_t lock_word_ = 0;  // version the last peek saw; the CAS expects it
  uint32_t probe_ = 0;      // probe distance from home
  uint32_t value_len_ = 0;
  Kind kind_ = Kind::kGet;
  SlotPhase phase_ = SlotPhase::kDone;
  SlotOutcome outcome_ = SlotOutcome::kNone;
};

}  // namespace rstore::kv
