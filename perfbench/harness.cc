#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>

namespace perfbench {

bool ParseWorkload(std::string_view name, Workload* out) {
  for (Workload w :
       {Workload::kFaninRead, Workload::kKvUpdate, Workload::kStreamRw}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

std::string_view WorkloadName(Workload w) {
  switch (w) {
    case Workload::kFaninRead:
      return "fanin-read";
    case Workload::kKvUpdate:
      return "kv-update";
    case Workload::kStreamRw:
      return "stream-rw";
  }
  return "?";
}

HostUsage HostUsage::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  HostUsage u;
  u.user_s = secs(ru.ru_utime);
  u.sys_s = secs(ru.ru_stime);
  u.minflt = static_cast<uint64_t>(ru.ru_minflt);
  u.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

HostUsage& HostUsage::operator+=(const HostUsage& o) {
  user_s += o.user_s;
  sys_s += o.sys_s;
  minflt += o.minflt;
  ctx_switches += o.ctx_switches;
  return *this;
}

HostUsage HostUsage::operator-(const HostUsage& o) const {
  HostUsage d;
  d.user_s = user_s - o.user_s;
  d.sys_s = sys_s - o.sys_s;
  d.minflt = minflt - o.minflt;
  d.ctx_switches = ctx_switches - o.ctx_switches;
  return d;
}

TailPick PickTail(uint64_t samples) {
  // Samples strictly beyond the (1 - 1/denom) quantile: samples / denom.
  struct Candidate {
    const char* label;
    double q;
    uint64_t denom;
  };
  static constexpr Candidate kCandidates[] = {
      {"p9999", 0.9999, 10000}, {"p999", 0.999, 1000}, {"p99", 0.99, 100},
      {"p90", 0.9, 10},         {"p50", 0.5, 2}};
  for (const Candidate& c : kCandidates) {
    const uint64_t beyond = samples / c.denom;
    if (beyond >= 10) return TailPick{c.label, c.q, beyond};
  }
  return TailPick{};
}

uint64_t CountWithin(const rstore::LatencyHistogram& hist, uint64_t limit_ns) {
  const uint64_t n = hist.count();
  if (n == 0 || hist.Quantile(0.0) > limit_ns) return 0;
  if (hist.Quantile(1.0) <= limit_ns) return n;
  double lo = 0.0;  // Quantile(lo) <= limit
  double hi = 1.0;  // Quantile(hi) > limit
  for (int i = 0; i < 60; ++i) {
    const double mid = (lo + hi) / 2;
    (hist.Quantile(mid) <= limit_ns ? lo : hi) = mid;
  }
  return static_cast<uint64_t>(lo * static_cast<double>(n));
}

namespace {

uint64_t Mix(uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr uint64_t kKvMagic = 0x3143455256424b50ULL;  // "PBKVREC1"
constexpr size_t kKvChecksumOff = kKvValueBytes - 8;

uint64_t Checksum(const std::byte* data, size_t len) {
  uint64_t h = 0x6a09e667f3bcc908ULL;
  for (size_t i = 0; i < len; ++i) {
    h = Mix(h ^ static_cast<uint64_t>(data[i]));
  }
  return h;
}

}  // namespace

uint64_t PatternKey(uint64_t seed, uint32_t client, uint32_t pass) {
  return Mix(seed ^ (uint64_t{client} << 40) ^ (uint64_t{pass} << 56));
}

uint64_t CountPatternMismatches(const std::byte* buf, uint64_t bytes,
                                uint64_t key, uint64_t offset) {
  uint64_t bad = 0;
  for (uint64_t i = 0; i + 8 <= bytes; i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, buf + i, 8);
    bad += word != PatternWord(key, offset + i);
  }
  return bad;
}

void EncodeKvValue(const KvRecord& rec, std::byte* out) {
  std::memcpy(out, &kKvMagic, 8);
  std::memcpy(out + 8, &rec.key_id, 8);
  std::memcpy(out + 16, &rec.writer, 4);
  std::memcpy(out + 20, &rec.seq, 4);
  uint64_t fill = Mix(rec.key_id ^ (uint64_t{rec.writer} << 32) ^ rec.seq);
  for (size_t i = 24; i < kKvChecksumOff; ++i) {
    out[i] = static_cast<std::byte>(fill >> (8 * (i % 8)));
    if (i % 8 == 7) fill = Mix(fill);
  }
  const uint64_t sum = Checksum(out, kKvChecksumOff);
  std::memcpy(out + kKvChecksumOff, &sum, 8);
}

bool DecodeKvValue(const std::byte* data, size_t len, uint64_t key_id,
                   KvRecord* out) {
  if (len != kKvValueBytes) return false;
  uint64_t magic = 0, sum = 0;
  std::memcpy(&magic, data, 8);
  std::memcpy(&sum, data + kKvChecksumOff, 8);
  if (magic != kKvMagic || sum != Checksum(data, kKvChecksumOff)) {
    return false;
  }
  KvRecord rec;
  std::memcpy(&rec.key_id, data + 8, 8);
  std::memcpy(&rec.writer, data + 16, 4);
  std::memcpy(&rec.seq, data + 20, 4);
  if (rec.key_id != key_id) return false;
  *out = rec;
  return true;
}

bool ArrivalsBalance(uint64_t arrivals, uint64_t completed, uint64_t shed,
                     uint64_t errors) {
  return arrivals == completed + shed + errors;
}

bool StageBand::Sums() const {
  uint64_t sum = 0;
  for (uint64_t ns : stage_ns) sum += ns;
  return sum == total_ns;
}

StageBand P999Band(const rstore::obs::RtraceReport& report) {
  // Re-derived from the report's raw latency bands (the bands overlapping
  // [p999, max]), not from RtraceReport::Attribution.
  using rstore::obs::RtraceReport;
  StageBand band;
  if (report.total_hist.count() == 0) return band;
  const uint64_t lo = report.total_hist.Quantile(0.999);
  for (size_t b = 0; b < report.bands.size(); ++b) {
    const RtraceReport::Band& x = report.bands[b];
    if (x.count == 0 || RtraceReport::BandLow(b + 1) <= lo) continue;
    band.count += x.count;
    band.total_ns += x.total_ns;
    for (size_t i = 0; i < band.stage_ns.size(); ++i) {
      band.stage_ns[i] += x.stage_ns[i];
    }
  }
  return band;
}

double HostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace perfbench
