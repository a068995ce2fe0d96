#ifndef CROWDRTSE_PERFBENCH_WORKLOADS_H_
#define CROWDRTSE_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace crowdrtse::perfbench {

/// Each runs one workload end to end (set-up, timed window, checks) and,
/// with flags.trace, the traced pass; the report holds the metrics of the
/// mode it ran in.
Report RunMetroLocal(const Flags& flags);
Report RunCity607Storm(const Flags& flags);
Report RunMetroShardedSocket(const Flags& flags);

}  // namespace crowdrtse::perfbench

#endif  // CROWDRTSE_PERFBENCH_WORKLOADS_H_
