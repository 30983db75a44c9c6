// The benchmark's workloads. Each runs its own set-up, measured phase and
// output checks in the calling process and returns what it measured.

#ifndef CGQ_PERFBENCH_WORKLOADS_H_
#define CGQ_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

RunReport RunGeoReport(const RunConfig& cfg);
RunReport RunAdhocPlan(const RunConfig& cfg);
RunReport RunServeMixed(const RunConfig& cfg);

}  // namespace perfbench

#endif  // CGQ_PERFBENCH_WORKLOADS_H_
