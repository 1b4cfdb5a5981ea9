// perfbench: the repository's end-to-end benchmark.
//
// One round builds fresh simulated clusters, runs one workload on them and
// returns two kinds of numbers:
//   * virtual-clock metrics — what the modelled RStore achieves. They are a
//     pure function of (workload, seed), so every round of a run, traced or
//     not, must reproduce them bit for bit;
//   * host-clock metrics — what the simulator costs to run on this machine.
// Everything is measured from outside src/: by timing calls into public
// functions, reading public stats structs, getrusage, and the obs::Telemetry
// registry a traced round attaches.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "obs/rtrace.h"

namespace perfbench {

enum class Workload { kFaninRead, kKvUpdate, kStreamRw };

[[nodiscard]] bool ParseWorkload(std::string_view name, Workload* out);
[[nodiscard]] std::string_view WorkloadName(Workload w);

// Corruption planted in the store during a round, used only by the
// negative controls of the output checks: each one must make its
// workload's check fail. (fanin-read's arrival balance has no in-round
// plant; its unit test feeds ArrivalsBalance unbalanced counts.)
enum class Plant {
  kNone,
  kStreamWord,   // overwrite one stored stream-rw word after the writes
  kKvUnwritten,  // store, for key 0, a well-formed value no client wrote
};

struct RoundConfig {
  Workload workload = Workload::kFaninRead;
  uint64_t seed = 1;
  // Attach obs::Telemetry (metrics + spans) and full rtrace. Never moves
  // virtual time; the caller checks that.
  bool traced = false;
  Plant plant = Plant::kNone;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// getrusage(RUSAGE_SELF) counters, as deltas over a phase.
struct HostUsage {
  double user_s = 0;
  double sys_s = 0;
  uint64_t minflt = 0;
  uint64_t ctx_switches = 0;  // voluntary + involuntary

  static HostUsage Now();
  HostUsage& operator+=(const HostUsage& o);
  [[nodiscard]] HostUsage operator-(const HostUsage& o) const;
};

// The highest percentile with at least ten samples beyond it.
struct TailPick {
  std::string label;     // "p999", ...; empty when no percentile qualifies
  double q = 0;          // quantile in [0, 1)
  uint64_t beyond = 0;   // samples above the percentile
};
[[nodiscard]] TailPick PickTail(uint64_t samples);

// Samples of `hist` at or below `limit_ns`, read off the quantile function
// (exact to the histogram's bucket resolution, and deterministic).
[[nodiscard]] uint64_t CountWithin(const rstore::LatencyHistogram& hist,
                                   uint64_t limit_ns);

// --- output checks (each has a planted-corruption negative control) ---

// stream-rw: the 8-byte word at byte offset `offset` of pass `pass` that
// client `client` writes is PatternWord(PatternKey(seed, client, pass),
// offset): distinct per pass, client and offset, and one multiply per word
// so that filling and checking stay cheap next to the IO they check.
[[nodiscard]] uint64_t PatternKey(uint64_t seed, uint32_t client,
                                  uint32_t pass);
[[nodiscard]] inline uint64_t PatternWord(uint64_t key, uint64_t offset) {
  return key ^ (offset * 0x9e3779b97f4a7c15ULL);
}
// Number of words of `buf` (starting at region offset `offset`) that differ
// from the pattern of `key`.
[[nodiscard]] uint64_t CountPatternMismatches(const std::byte* buf,
                                              uint64_t bytes, uint64_t key,
                                              uint64_t offset);

// kv-update: values are self-describing records. EncodeKvValue fills `out`
// (kKvValueBytes long); DecodeKvValue returns false unless the record is
// intact and belongs to `key_id`.
inline constexpr uint32_t kKvValueBytes = 100;
inline constexpr uint32_t kPreloadWriter = 0xffff;
struct KvRecord {
  uint64_t key_id = 0;
  uint32_t writer = 0;  // client index, or kPreloadWriter
  uint32_t seq = 0;     // writer-local sequence number
};
void EncodeKvValue(const KvRecord& rec, std::byte* out);
[[nodiscard]] bool DecodeKvValue(const std::byte* data, size_t len,
                                 uint64_t key_id, KvRecord* out);

// fanin-read: every arrival either completed, was shed, or errored.
[[nodiscard]] bool ArrivalsBalance(uint64_t arrivals, uint64_t completed,
                                   uint64_t shed, uint64_t errors);

// rtrace: the p999-band stage sums, re-derived from the report, must add up
// exactly to the band total (the invariant tools/rtail checks).
struct StageBand {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  rstore::obs::RtraceStageNs stage_ns{};
  [[nodiscard]] bool Sums() const;
};
[[nodiscard]] StageBand P999Band(const rstore::obs::RtraceReport& report);

// --- one round ---

struct RoundResult {
  std::vector<std::string> errors;  // failed output checks; empty = correct
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Virtual end-to-end metrics plus unreported virtual fingerprints (end
  // times, event counts): all must repeat exactly across rounds.
  std::vector<Metric> virt;
  std::vector<uint64_t> fingerprint;
  std::string notes;  // printed before the result, not checked
  std::vector<double> setup_s;      // host seconds per cluster built
  double wall_s = 0;                // host seconds in the measured phases
  HostUsage usage;                  // getrusage over the measured phases
  // Per-layer metrics; the telemetry-backed ones are 0 unless traced.
  std::vector<Metric> layer;
};

// Runs one round of config.workload (workloads.cc).
[[nodiscard]] RoundResult RunRound(const RoundConfig& config);

// Host wall clock in seconds (steady).
[[nodiscard]] double HostSeconds();

[[nodiscard]] double Median(std::vector<double> v);

}  // namespace perfbench
