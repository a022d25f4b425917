// The benchmark's two workloads. Each sets up its serving stack several
// times (setup_s is the median), restarts it from the written snapshot
// (restart_s), drives it over CTXQ1 on loopback, gates its answers
// against an in-process reference, and on traced runs times each layer;
// cold-text's traced run also probes a gateway and a live index.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

/// Names accepted by --workload.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload into `report`. Returns false when the run could not
/// complete (a set-up step failed); gate failures are recorded in the
/// report instead.
bool RunWorkload(const Args& args, Report& report, SpanLog& spans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
