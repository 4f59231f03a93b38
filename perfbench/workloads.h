// The four workloads. Each generates all of its inputs from the seed; see
// README.md for why each was chosen and what one op is.
#ifndef GELC_PERFBENCH_WORKLOADS_H_
#define GELC_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>

#include "harness.h"

namespace gelc {
namespace perfbench {

std::unique_ptr<Workload> MakeQueryWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeSeparateWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeTrainWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeStreamWorkload(uint64_t seed);

}  // namespace perfbench
}  // namespace gelc

#endif  // GELC_PERFBENCH_WORKLOADS_H_
