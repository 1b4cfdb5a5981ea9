// Cluster-free tests of the RKV slot protocol machine (kv/slot_op.h): a
// table image in local memory and a synchronous executor that performs each
// step the machine names against it. Covers the probe walk (overwrite in
// place past a tombstone, tombstone reuse at the chain end, the probe
// window), the recheck under the lock for put and delete, the seqlock
// version arithmetic, and the conflict results a caller acts on.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "kv/slot_op.h"

namespace rstore::kv {
namespace {

std::string Str(std::span<const std::byte> b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

// A whole table region in local memory plus the machine's buffers.
class LocalTable {
 public:
  explicit LocalTable(uint64_t buckets, uint32_t max_probe = 16) {
    table_.buckets = buckets;
    table_.slot_bytes = 64;
    table_.max_probe = max_probe;
    region_.assign(SlotLayout::SlotOffset(buckets, table_.slot_bytes),
                   std::byte{0});
    SlotLayout::WriteHeader(region_.data(), table_);
    buf_.assign(table_.slot_bytes + SlotOp::kCellBytes, std::byte{0});
    op_ = SlotOp(table_, buf_.data(), buf_.data() + table_.slot_bytes);
  }

  SlotOp& op() { return op_; }
  uint64_t Home(std::string_view key) const {
    return SlotLayout::HomeSlot(key, table_.buckets);
  }
  // Slot `home + d` of `key`'s chain.
  uint64_t At(std::string_view key, uint64_t d) const {
    return (Home(key) + d) % table_.buckets;
  }
  std::byte* Slot(uint64_t slot) {
    return region_.data() + SlotLayout::SlotOffset(slot, table_.slot_bytes);
  }
  SlotView View(uint64_t slot) { return SlotLayout::Parse(Slot(slot)); }
  void Place(uint64_t slot, uint64_t version, std::string_view key,
             std::string_view value) {
    const std::span<std::byte> v =
        SlotLayout::Compose(Slot(slot), table_.slot_bytes, version, key,
                            static_cast<uint32_t>(value.size()));
    if (!v.empty()) std::memcpy(v.data(), value.data(), v.size());
  }
  void Tombstone(uint64_t slot, uint64_t version) {
    Place(slot, version, "", "");
  }

  // Performs the machine's current step against the region.
  void Execute() {
    const SlotStep step = op_.step();
    ASSERT_GT(step.count, 0u);
    for (uint32_t i = 0; i < step.count; ++i) {
      const SlotIo& io = step.io[i];
      std::byte* remote = region_.data() + io.offset;
      switch (io.op) {
        case SlotIo::Op::kRead:
          std::memcpy(io.local, remote, io.length);
          break;
        case SlotIo::Op::kWrite:
          std::memcpy(remote, io.local, io.length);
          break;
        case SlotIo::Op::kCompareSwap: {
          uint64_t old;
          std::memcpy(&old, remote, 8);
          if (old == io.compare) std::memcpy(remote, &io.swap, 8);
          std::memcpy(io.local, &old, 8);
          break;
        }
      }
    }
    ++steps_[static_cast<size_t>(op_.phase())];
  }

  // Executes and completes one step.
  SlotResult Step() {
    Execute();
    return op_.Complete();
  }

  // Runs until the machine is in `phase` (or done) with no conflicts.
  void RunTo(SlotPhase phase) {
    while (op_.phase() != phase && op_.phase() != SlotPhase::kDone) {
      const SlotResult r = Step();
      ASSERT_TRUE(r == SlotResult::kNext || r == SlotResult::kDone)
          << static_cast<int>(r);
      if (op_.phase() == SlotPhase::kWrite) Fill();
    }
  }

  // Starts an op; a put's value is filled in when the write is composed.
  void Begin(SlotOp::Kind kind, std::string_view key,
             std::string_view value = {}) {
    value_ = value;
    steps_ = {};
    op_.Begin(kind, key, static_cast<uint32_t>(value.size()));
  }

  // Runs an op to the end and returns its outcome.
  SlotOutcome Run(SlotOp::Kind kind, std::string_view key,
                  std::string_view value = {}) {
    Begin(kind, key, value);
    RunTo(SlotPhase::kDone);
    return op_.outcome();
  }

  uint64_t Version(uint64_t slot) { return View(slot).version; }
  uint32_t Steps(SlotPhase phase) const {
    return steps_[static_cast<size_t>(phase)];
  }

 private:
  void Fill() {
    const std::span<std::byte> v = op_.value();
    ASSERT_EQ(v.size(), value_.size());
    if (!v.empty()) std::memcpy(v.data(), value_.data(), v.size());
  }

  KvOptions table_;
  std::vector<std::byte> region_;
  std::vector<std::byte> buf_;
  SlotOp op_;
  std::string_view value_;
  std::array<uint32_t, 7> steps_{};
};

TEST(SlotOpTest, PutThenGetRoundTrips) {
  LocalTable t(64);
  EXPECT_EQ(t.Run(SlotOp::Kind::kPut, "k", "v1"), SlotOutcome::kWritten);
  EXPECT_EQ(t.op().slot(), t.Home("k"));
  ASSERT_EQ(t.Run(SlotOp::Kind::kGet, "k"), SlotOutcome::kFound);
  EXPECT_EQ(Str(t.op().value()), "v1");
  EXPECT_EQ(t.Run(SlotOp::Kind::kGet, "other"), SlotOutcome::kNotFound);
}

TEST(SlotOpTest, MatchPastTombstoneIsOverwrittenInPlace) {
  LocalTable t(64);
  t.Tombstone(t.At("k", 0), 4);
  t.Place(t.At("k", 1), 2, "k", "old");
  EXPECT_EQ(t.Run(SlotOp::Kind::kPut, "k", "new"), SlotOutcome::kWritten);
  EXPECT_EQ(t.op().slot(), t.At("k", 1));
  EXPECT_EQ(t.View(t.At("k", 1)).key, "k");
  EXPECT_EQ(Str(t.View(t.At("k", 1)).value), "new");
  EXPECT_EQ(t.Version(t.At("k", 1)), 4u);
  // The tombstone stays a tombstone: the key lives in exactly one slot.
  EXPECT_TRUE(t.View(t.At("k", 0)).key.empty());
  EXPECT_EQ(t.Version(t.At("k", 0)), 4u);
}

TEST(SlotOpTest, TombstoneIsReusedWhenTheChainEnds) {
  LocalTable t(64);
  t.Tombstone(t.At("k", 0), 2);
  t.Place(t.At("k", 1), 2, "x", "other");
  // At("k", 2) was never used: it ends the chain.
  EXPECT_EQ(t.Run(SlotOp::Kind::kPut, "k", "v"), SlotOutcome::kWritten);
  EXPECT_EQ(t.op().slot(), t.At("k", 0));
  EXPECT_EQ(t.Steps(SlotPhase::kProbe), 3u);  // stopped at the chain end
  EXPECT_EQ(t.View(t.At("k", 0)).key, "k");
  EXPECT_EQ(t.Version(t.At("k", 0)), 4u);
  EXPECT_TRUE(t.View(t.At("k", 2)).never_used());
  ASSERT_EQ(t.Run(SlotOp::Kind::kGet, "k"), SlotOutcome::kFound);
  EXPECT_EQ(Str(t.op().value()), "v");
}

TEST(SlotOpTest, FullProbeWindowFailsPutAndMissesGet) {
  LocalTable t(64, /*max_probe=*/4);
  const std::array<std::string_view, 4> others = {"x0", "x1", "x2", "x3"};
  for (uint64_t d = 0; d < others.size(); ++d) {
    t.Place(t.At("k", d), 2, others[d], "v");
  }
  EXPECT_EQ(t.Run(SlotOp::Kind::kPut, "k", "v"), SlotOutcome::kFull);
  EXPECT_EQ(t.Steps(SlotPhase::kProbe), 4u);
  EXPECT_EQ(t.Steps(SlotPhase::kLockPeek), 0u);
  EXPECT_EQ(t.Run(SlotOp::Kind::kGet, "k"), SlotOutcome::kNotFound);
  EXPECT_EQ(t.Steps(SlotPhase::kProbe), 4u);
  EXPECT_EQ(t.Run(SlotOp::Kind::kDelete, "k"), SlotOutcome::kNotFound);
  // A tombstone in the window makes room.
  t.Tombstone(t.At("k", 2), 4);
  EXPECT_EQ(t.Run(SlotOp::Kind::kPut, "k", "v"), SlotOutcome::kWritten);
  EXPECT_EQ(t.op().slot(), t.At("k", 2));
}

TEST(SlotOpTest, RecheckRejectsASlotClaimedForAnotherKey) {
  LocalTable t(64);
  t.Begin(SlotOp::Kind::kPut, "k", "v");
  t.RunTo(SlotPhase::kRecheck);
  const uint64_t slot = t.op().slot();
  ASSERT_EQ(slot, t.Home("k"));
  ASSERT_EQ(t.Version(slot), 1u);  // we hold the lock
  // Between our probe and our CAS another writer claimed the slot (its
  // body changed; the version word is ours now).
  t.Place(slot, 1, "x", "theirs");
  EXPECT_EQ(t.Step(), SlotResult::kNext);
  EXPECT_EQ(t.op().phase(), SlotPhase::kUnlock);  // release, write nothing
  EXPECT_EQ(t.Step(), SlotResult::kDone);
  EXPECT_EQ(t.op().outcome(), SlotOutcome::kClaimed);
  EXPECT_EQ(t.Version(slot), 2u);
  EXPECT_EQ(t.View(slot).key, "x");
  // A retry walks the chain again and lands past the claimed slot.
  t.op().Restart();
  t.RunTo(SlotPhase::kWrite);
  EXPECT_EQ(t.op().slot(), t.At("k", 1));
}

TEST(SlotOpTest, DeleteRecheckFailsAsVanished) {
  LocalTable t(64);
  t.Place(t.Home("k"), 2, "k", "v");
  t.Begin(SlotOp::Kind::kDelete, "k");
  t.RunTo(SlotPhase::kRecheck);
  t.Tombstone(t.Home("k"), 3);  // another delete won the race
  EXPECT_EQ(t.Step(), SlotResult::kNext);
  EXPECT_EQ(t.op().phase(), SlotPhase::kUnlock);
  EXPECT_EQ(t.Step(), SlotResult::kDone);
  EXPECT_EQ(t.op().outcome(), SlotOutcome::kVanished);
  EXPECT_EQ(t.Version(t.Home("k")), 4u);
}

TEST(SlotOpTest, DeleteLeavesATombstoneThatKeepsTheChain) {
  LocalTable t(64);
  t.Place(t.At("k", 0), 2, "k", "v");
  t.Place(t.At("k", 1), 2, "j", "w");
  EXPECT_EQ(t.Run(SlotOp::Kind::kDelete, "k"), SlotOutcome::kWritten);
  const SlotView stone = t.View(t.At("k", 0));
  EXPECT_TRUE(stone.key.empty());
  EXPECT_TRUE(stone.value.empty());
  EXPECT_EQ(stone.version, 4u);
  EXPECT_FALSE(stone.never_used());
  EXPECT_EQ(t.Run(SlotOp::Kind::kGet, "k"), SlotOutcome::kNotFound);
  EXPECT_EQ(t.Steps(SlotPhase::kProbe), 3u);  // walked past the tombstone
}

TEST(SlotOpTest, VersionGoesEvenOddEven) {
  LocalTable t(64);
  const uint64_t slot = t.Home("k");
  for (uint64_t round = 0; round < 2; ++round) {
    t.Begin(SlotOp::Kind::kPut, "k", "v");
    EXPECT_EQ(t.Version(slot), 2 * round);
    t.RunTo(SlotPhase::kRecheck);  // the CAS took the lock
    EXPECT_EQ(t.Version(slot), 2 * round + 1);
    t.RunTo(SlotPhase::kUnlock);  // payload written, lock still held
    EXPECT_EQ(t.Version(slot), 2 * round + 1);
    EXPECT_EQ(t.Step(), SlotResult::kDone);
    EXPECT_EQ(t.Version(slot), 2 * round + 2);
    EXPECT_EQ(t.op().version(), 2 * round + 2);  // the image is the slot
  }
}

TEST(SlotOpTest, ConflictsLeaveTheStepToRetry) {
  LocalTable t(64);
  const uint64_t slot = t.Home("k");
  t.Place(slot, 3, "k", "v");  // a writer holds the lock
  t.Begin(SlotOp::Kind::kGet, "k");
  EXPECT_EQ(t.Step(), SlotResult::kTorn);
  EXPECT_EQ(t.op().slot(), slot);  // a retry re-reads the same slot
  EXPECT_EQ(t.Step(), SlotResult::kTorn);
  t.Place(slot, 4, "k", "v2");  // released
  ASSERT_EQ(t.Step(), SlotResult::kDone);
  EXPECT_EQ(Str(t.op().value()), "v2");

  // A skip moves on as if the torn slot held another key.
  t.Place(slot, 5, "k", "v2");
  t.Begin(SlotOp::Kind::kPut, "k", "v");
  EXPECT_EQ(t.Step(), SlotResult::kTorn);
  EXPECT_EQ(t.op().Skip(), SlotResult::kNext);
  EXPECT_EQ(t.op().slot(), t.At("k", 1));

  // The lock: a held seqlock, then a CAS lost to a finished writer.
  t.Place(slot, 6, "k", "v2");
  t.Begin(SlotOp::Kind::kPut, "k", "v");
  ASSERT_EQ(t.Step(), SlotResult::kNext);  // probe: our key
  ASSERT_EQ(t.op().phase(), SlotPhase::kLockPeek);
  t.Place(slot, 7, "k", "v2");
  EXPECT_EQ(t.Step(), SlotResult::kLockHeld);
  EXPECT_EQ(t.op().phase(), SlotPhase::kLockPeek);
  t.Place(slot, 8, "k", "v2");
  ASSERT_EQ(t.Step(), SlotResult::kNext);  // peek saw 8
  t.Place(slot, 10, "k", "v2");            // a whole write cycle slipped in
  EXPECT_EQ(t.Step(), SlotResult::kCasLost);
  EXPECT_FALSE(t.op().cas_winner_holds());
  EXPECT_EQ(t.op().phase(), SlotPhase::kLockPeek);
  ASSERT_EQ(t.Step(), SlotResult::kNext);
  ASSERT_EQ(t.Step(), SlotResult::kNext);  // the CAS wins now
  EXPECT_EQ(t.Version(slot), 11u);
}

TEST(SlotOpTest, StepsCarryTheirRaceClass) {
  LocalTable t(64);
  t.Begin(SlotOp::Kind::kPut, "k", "v");
  std::vector<std::pair<SlotPhase, SlotRace>> seen;
  while (t.op().phase() != SlotPhase::kDone) {
    seen.emplace_back(t.op().phase(), t.op().step().race);
    const SlotResult r = t.Step();
    ASSERT_TRUE(r == SlotResult::kNext || r == SlotResult::kDone);
  }
  const std::vector<std::pair<SlotPhase, SlotRace>> want = {
      {SlotPhase::kProbe, SlotRace::kSpeculative},
      {SlotPhase::kLockPeek, SlotRace::kSpeculative},
      {SlotPhase::kLockCas, SlotRace::kPlain},
      {SlotPhase::kRecheck, SlotRace::kPlain},
      {SlotPhase::kWrite, SlotRace::kPlain},
      {SlotPhase::kUnlock, SlotRace::kSyncCell},
  };
  EXPECT_EQ(seen, want);
}

TEST(SlotLayoutTest, HeaderRoundTripsAndRejectsForeignBytes) {
  KvOptions table;
  table.buckets = 1234;
  table.slot_bytes = 96;
  table.max_probe = 7;
  std::vector<std::byte> hdr(SlotLayout::kHeaderBytes);
  SlotLayout::WriteHeader(hdr.data(), table);
  KvOptions back;
  ASSERT_TRUE(SlotLayout::ReadHeader(hdr.data(), &back));
  EXPECT_EQ(back.buckets, 1234u);
  EXPECT_EQ(back.slot_bytes, 96u);
  EXPECT_EQ(back.max_probe, 7u);
  hdr[0] = std::byte{0};
  EXPECT_FALSE(SlotLayout::ReadHeader(hdr.data(), &back));
}

}  // namespace
}  // namespace rstore::kv
