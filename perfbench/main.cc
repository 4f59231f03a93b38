// gelc_perfbench: the end-to-end benchmark program.
//
//   gelc_perfbench --workload query|separate|train|stream --seed N
//                  --seconds S --trace 0|1 [--trace-out PATH]
//                  [--inject-fault OP] [--git-sha SHA]
//
// Prints a `report {...}` line (context, sample counts, digest, every
// metric) and, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics traced. perfbench/run.py builds and
// launches it.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "context.h"
#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "gelc_perfbench: %s\n"
               "usage: gelc_perfbench --workload query|separate|train|stream"
               " --seed N --seconds S --trace 0|1 [--trace-out PATH]"
               " [--inject-fault OP] [--git-sha SHA]\n",
               why);
  return 2;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (*end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using gelc::perfbench::RunConfig;
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseU64(value, &config.seed)) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
      if (!(config.seconds > 0 && config.seconds <= 600))
        return Usage("--seconds must be in (0, 600]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else if (flag == "--inject-fault") {
      if (!ParseU64(value, &n)) return Usage("bad --inject-fault");
      config.inject_op = static_cast<int64_t>(n);
    } else if (flag == "--git-sha") {
      gelc::perfbench::SetGitSha(value);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  std::unique_ptr<gelc::perfbench::Workload> workload;
  if (config.workload == "query") {
    workload = gelc::perfbench::MakeQueryWorkload(config.seed);
  } else if (config.workload == "separate") {
    workload = gelc::perfbench::MakeSeparateWorkload(config.seed);
  } else if (config.workload == "train") {
    workload = gelc::perfbench::MakeTrainWorkload(config.seed);
  } else if (config.workload == "stream") {
    workload = gelc::perfbench::MakeStreamWorkload(config.seed);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  return gelc::perfbench::RunWorkload(workload.get(), config);
}
