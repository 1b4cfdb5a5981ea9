// perfbench binary: runs rounds of one workload for a host-time budget and
// prints one JSON result line (see README.md).
//
//   perfbench --workload <fanin-read|kv-update|stream-rw> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced rounds and reports the per-layer metrics. Every round of a run
// must reproduce the first round's virtual metrics exactly.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/log.h"
#include "harness.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fanin-read|kv-update|stream-rw> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why);
  return 2;
}

// Host-derived per-layer metrics: taken as medians over the untraced
// rounds, so tracing cost never leaks into them.
bool HostLayer(std::string_view name) {
  static const std::set<std::string_view> kHost = {
      "sim.host_ns_per_event", "sim.ctx_switches",   "sim.user_s",
      "sim.sys_s",             "verbs.minflt",       "core.control_host_s"};
  return kHost.count(name) == 1;
}

double LayerValue(const RoundResult& r, std::string_view name) {
  for (const Metric& m : r.layer) {
    if (m.name == name) return m.value;
  }
  return 0;
}

bool SameVirtual(const RoundResult& a, const RoundResult& b) {
  if (a.virt.size() != b.virt.size() || a.fingerprint != b.fingerprint) {
    return false;
  }
  for (size_t i = 0; i < a.virt.size(); ++i) {
    if (a.virt[i].name != b.virt[i].name ||
        std::memcmp(&a.virt[i].value, &b.virt[i].value, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

int Run(int argc, char** argv) {
  Workload workload = Workload::kFaninRead;
  bool have_workload = false;
  uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    char* end = nullptr;
    if (val == nullptr) return Usage("missing value");
    ++i;
    if (arg == "--workload") {
      if (!ParseWorkload(val, &workload)) return Usage("unknown workload");
      have_workload = true;
    } else if (arg == "--seed") {
      seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (arg == "--seconds") {
      seconds = std::strtod(val, &end);
      if (*end != '\0' || !(seconds > 0)) return Usage("bad --seconds");
    } else if (arg == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return Usage("bad --trace");
      }
      trace = val[0] - '0';
    } else {
      return Usage("unknown flag");
    }
  }
  if (!have_workload || seconds < 0 || trace < 0) {
    return Usage("--workload, --seconds and --trace are required");
  }
  rstore::SetLogLevel(rstore::LogLevel::kWarn);

  std::printf(
      "# perfbench workload=%s seed=%llu trace=%d build_type=%s "
      "scheduler=legacy(one SimThread at a time) nproc=%ld\n",
      std::string(WorkloadName(workload)).c_str(),
      static_cast<unsigned long long>(seed), trace, PERFBENCH_BUILD_TYPE,
      sysconf(_SC_NPROCESSORS_ONLN));

  // Rounds repeat until the budget is spent; medians over them make the
  // host metrics steady, and their exact agreement proves determinism.
  const size_t min_rounds = trace == 1 ? 2 : 3;
  const double t_start = HostSeconds();
  std::vector<RoundResult> plain, traced;
  double peak_rss_mb = 0;
  while (plain.size() < min_rounds || HostSeconds() - t_start < seconds) {
    RoundConfig cfg;
    cfg.workload = workload;
    cfg.seed = seed;
    plain.push_back(RunRound(cfg));
    if (plain.size() == 1) {
      // Peak memory of one round in a fresh process: later rounds add
      // allocator fragmentation that depends on how many rounds fit.
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024;
    }
    std::printf("# round %zu: wall %.4fs setup %.4fs\n", plain.size(),
                plain.back().wall_s, Median(plain.back().setup_s));
    if (trace == 1) {
      cfg.traced = true;
      traced.push_back(RunRound(cfg));
      std::printf("# round %zu traced: wall %.4fs\n", traced.size(),
                  traced.back().wall_s);
    }
    std::fflush(stdout);
  }

  const RoundResult& ref = plain.front();
  std::vector<std::string> errors;
  uint64_t attempted = 0, failed = 0;
  size_t index = 0;
  for (const std::vector<RoundResult>* set : {&plain, &traced}) {
    for (const RoundResult& r : *set) {
      for (const std::string& e : r.errors) {
        if (std::find(errors.begin(), errors.end(), e) == errors.end()) {
          errors.push_back(e);
        }
      }
      if (!SameVirtual(ref, r)) {
        errors.push_back("virtual metrics of round " + std::to_string(index) +
                         (set == &traced ? " (traced)" : "") +
                         " differ from round 0");
      }
      attempted += r.attempted;
      failed += r.failed;
      ++index;
    }
  }
  std::printf("# %s\n", ref.notes.c_str());

  std::vector<Metric> metrics;
  std::vector<double> walls, setups;
  for (const RoundResult& r : plain) {
    walls.push_back(r.wall_s);
    setups.insert(setups.end(), r.setup_s.begin(), r.setup_s.end());
  }
  if (trace == 0) {
    metrics = ref.virt;
    metrics.push_back(Metric{"wall_s", "s", Median(walls)});
    metrics.push_back(Metric{"setup_s", "s", Median(setups)});
    metrics.push_back(Metric{"peak_rss_mb", "MB", peak_rss_mb});
  } else {
    for (Metric m : traced.front().layer) {
      if (HostLayer(m.name)) {
        std::vector<double> v;
        for (const RoundResult& r : plain) v.push_back(LayerValue(r, m.name));
        m.value = Median(v);
      }
      metrics.push_back(m);
    }
    std::vector<double> traced_walls;
    for (const RoundResult& r : traced) traced_walls.push_back(r.wall_s);
    metrics.push_back(Metric{"obs.wall_overhead_s", "s",
                             Median(traced_walls) - Median(walls)});
  }

  for (const std::string& e : errors) {
    std::printf("# CHECK FAILED: %s\n", e.c_str());
  }
  std::string line = "{\"correct\": ";
  line += errors.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
