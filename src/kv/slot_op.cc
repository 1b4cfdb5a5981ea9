#include "kv/slot_op.h"

#include <cstring>

#include "common/rng.h"

namespace rstore::kv {
namespace {

uint64_t Load64(const std::byte* p) noexcept {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Store64(std::byte* p, uint64_t v) noexcept {
  std::memcpy(p, &v, sizeof(v));
}

constexpr uint64_t kKeyLenOff = SlotLayout::kKeyLenOff;
constexpr uint64_t kValLenOff = SlotLayout::kValLenOff;
constexpr uint64_t kPayloadOff = SlotLayout::kPayloadOff;

}  // namespace

uint64_t SlotLayout::HomeSlot(std::string_view key,
                              uint64_t buckets) noexcept {
  return StableHash64(key) % buckets;
}

SlotView SlotLayout::Parse(const std::byte* slot) noexcept {
  uint16_t key_len;
  uint32_t val_len;
  std::memcpy(&key_len, slot + kKeyLenOff, sizeof(key_len));
  std::memcpy(&val_len, slot + kValLenOff, sizeof(val_len));
  return {Load64(slot + kVersionOff),
          {reinterpret_cast<const char*>(slot + kPayloadOff), key_len},
          {slot + kPayloadOff + key_len, val_len}};
}

std::span<std::byte> SlotLayout::Compose(std::byte* dst, uint32_t slot_bytes,
                                         uint64_t version,
                                         std::string_view key,
                                         uint32_t value_len) noexcept {
  std::memset(dst, 0, slot_bytes);
  const auto key_len = static_cast<uint16_t>(key.size());
  Store64(dst + kVersionOff, version);
  std::memcpy(dst + kKeyLenOff, &key_len, sizeof(key_len));
  std::memcpy(dst + kValLenOff, &value_len, sizeof(value_len));
  std::memcpy(dst + kPayloadOff, key.data(), key.size());
  return {dst + kPayloadOff + key.size(), value_len};
}

void SlotLayout::WriteHeader(std::byte* hdr,
                             const KvOptions& table) noexcept {
  std::memset(hdr, 0, kHeaderBytes);
  Store64(hdr, kMagic);
  Store64(hdr + 8, table.buckets);
  std::memcpy(hdr + 16, &table.slot_bytes, 4);
  std::memcpy(hdr + 20, &table.max_probe, 4);
}

bool SlotLayout::ReadHeader(const std::byte* hdr,
                            KvOptions* table) noexcept {
  if (Load64(hdr) != kMagic) return false;
  table->buckets = Load64(hdr + 8);
  std::memcpy(&table->slot_bytes, hdr + 16, 4);
  std::memcpy(&table->max_probe, hdr + 20, 4);
  return true;
}

void SlotOp::Begin(Kind kind, std::string_view key,
                   uint32_t value_len) noexcept {
  kind_ = kind;
  key_ = key;
  value_len_ = value_len;
  home_ = SlotLayout::HomeSlot(key, table_->buckets);
  Restart();
}

void SlotOp::Restart() noexcept {
  probe_ = 0;
  reusable_ = -1;
  phase_ = SlotPhase::kProbe;
  outcome_ = SlotOutcome::kNone;
}

uint64_t SlotOp::slot() const noexcept {
  return phase_ == SlotPhase::kProbe ? (home_ + probe_) % table_->buckets
                                     : target_;
}

uint64_t SlotOp::version() const noexcept { return Load64(image_); }

bool SlotOp::cas_winner_holds() const noexcept {
  return (Load64(cells_ + 8) & 1) != 0;
}

std::span<std::byte> SlotOp::value() const noexcept {
  const SlotView view = SlotLayout::Parse(image_);
  return {image_ + kPayloadOff + view.key.size(), view.value.size()};
}

SlotStep SlotOp::step() const noexcept {
  // The version word leads the slot; the body starts at key_len.
  const uint64_t cell = SlotLayout::SlotOffset(slot(), table_->slot_bytes);
  const uint64_t body = cell + kKeyLenOff;
  SlotStep s;
  s.count = 1;
  switch (phase_) {
    case SlotPhase::kProbe:
      // Seqlock readers never take the lock: the slot read may see a
      // writer's bytes, and is discarded when the re-read shows the
      // version moved.
      s.race = SlotRace::kSpeculative;
      s.count = 2;
      s.io[0] = {SlotIo::Op::kRead, cell, table_->slot_bytes, image_};
      s.io[1] = {SlotIo::Op::kRead, cell, 8, cells_};
      break;
    case SlotPhase::kLockPeek:
      // A concurrent release is expected; the CAS resolves it.
      s.race = SlotRace::kSpeculative;
      s.io[0] = {SlotIo::Op::kRead, cell, 8, cells_};
      break;
    case SlotPhase::kLockCas:
      s.io[0] = {SlotIo::Op::kCompareSwap, cell, 8, cells_ + 8, lock_word_,
                 lock_word_ + 1};
      break;
    case SlotPhase::kRecheck:
      // The lock freezes the body but not the version cell, which other
      // writers keep peeking and CASing; reading from key_len onward
      // stays clear of it, so this read is race-free.
      s.io[0] = {SlotIo::Op::kRead, body,
                 static_cast<uint32_t>(table_->slot_bytes - kKeyLenOff),
                 image_ + kKeyLenOff};
      break;
    case SlotPhase::kWrite: {
      // The locked version word stays untouched until the release. A
      // tombstone clears key_len and val_len.
      const uint64_t len =
          kind_ == Kind::kDelete
              ? 8
              : SlotLayout::kSlotHeader - kKeyLenOff + key_.size() +
                    value_len_;
      s.io[0] = {SlotIo::Op::kWrite, body, static_cast<uint32_t>(len),
                 image_ + kKeyLenOff};
      break;
    }
    case SlotPhase::kUnlock:
      // The release half of the CAS acquire.
      s.race = SlotRace::kSyncCell;
      s.io[0] = {SlotIo::Op::kWrite, cell, 8, cells_ + 16};
      break;
    case SlotPhase::kDone:
      s.count = 0;
      break;
  }
  return s;
}

SlotResult SlotOp::Complete() noexcept {
  switch (phase_) {
    case SlotPhase::kProbe: {
      const SlotView view = SlotLayout::Parse(image_);
      if ((view.version & 1) != 0 || Load64(cells_) != view.version) {
        return SlotResult::kTorn;
      }
      const uint64_t here = slot();
      if (view.never_used()) {
        if (kind_ != Kind::kPut) return Finish(SlotOutcome::kNotFound);
        return Lock(reusable_ >= 0 ? static_cast<uint64_t>(reusable_) : here);
      }
      if (view.key == key_) {
        return kind_ == Kind::kGet ? Finish(SlotOutcome::kFound) : Lock(here);
      }
      // A tombstone is reusable by a put, but the key may live further
      // along the chain: remember the first one and keep probing.
      if (view.key.empty() && reusable_ < 0) {
        reusable_ = static_cast<int64_t>(here);
      }
      return Advance();
    }
    case SlotPhase::kLockPeek:
      lock_word_ = Load64(cells_);
      if ((lock_word_ & 1) != 0) return SlotResult::kLockHeld;
      phase_ = SlotPhase::kLockCas;
      return SlotResult::kNext;
    case SlotPhase::kLockCas:
      if (Load64(cells_ + 8) != lock_word_) {
        phase_ = SlotPhase::kLockPeek;
        return SlotResult::kCasLost;
      }
      // Locked. The recheck reads from key_len onward; zero the version
      // word so the image parses deterministically.
      Store64(image_, 0);
      phase_ = SlotPhase::kRecheck;
      return SlotResult::kNext;
    case SlotPhase::kRecheck: {
      // Between the probe and the CAS another client may have claimed
      // the slot for a different key (or, for a delete, emptied it).
      const std::string_view now = SlotLayout::Parse(image_).key;
      if (kind_ == Kind::kDelete) {
        if (now != key_) return Unlock(SlotOutcome::kVanished);
        std::memset(image_ + kKeyLenOff, 0, 8);  // key_len = val_len = 0
      } else {
        if (now != key_ && !now.empty()) return Unlock(SlotOutcome::kClaimed);
        (void)SlotLayout::Compose(image_, table_->slot_bytes, 0, key_,
                                  value_len_);
      }
      phase_ = SlotPhase::kWrite;
      return SlotResult::kNext;
    }
    case SlotPhase::kWrite:
      return Unlock(SlotOutcome::kWritten);
    case SlotPhase::kUnlock:
      if (outcome_ == SlotOutcome::kWritten) Store64(image_, lock_word_ + 2);
      phase_ = SlotPhase::kDone;
      return SlotResult::kDone;
    case SlotPhase::kDone:
      break;
  }
  return SlotResult::kDone;
}

SlotResult SlotOp::Advance() noexcept {
  if (++probe_ < table_->max_probe) return SlotResult::kNext;
  if (kind_ == Kind::kPut && reusable_ >= 0) {
    return Lock(static_cast<uint64_t>(reusable_));
  }
  return Finish(kind_ == Kind::kPut ? SlotOutcome::kFull
                                    : SlotOutcome::kNotFound);
}

SlotResult SlotOp::Lock(uint64_t slot) noexcept {
  target_ = slot;
  phase_ = SlotPhase::kLockPeek;
  return SlotResult::kNext;
}

SlotResult SlotOp::Unlock(SlotOutcome outcome) noexcept {
  outcome_ = outcome;
  Store64(cells_ + 16, lock_word_ + 2);  // odd -> next even: released
  phase_ = SlotPhase::kUnlock;
  return SlotResult::kNext;
}

SlotResult SlotOp::Finish(SlotOutcome outcome) noexcept {
  outcome_ = outcome;
  phase_ = SlotPhase::kDone;
  return SlotResult::kDone;
}

}  // namespace rstore::kv
