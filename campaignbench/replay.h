// Traced pass: records a live campaign, replays its cases through the
// library's public entry points, and prints the per-layer metrics.

#ifndef CAMPAIGNBENCH_REPLAY_H_
#define CAMPAIGNBENCH_REPLAY_H_

#include <string>

#include "campaign.h"

namespace campaignbench {

// Runs the traced pass of |workload| for about |seconds| and prints the
// per-layer metrics; spans go to |out_dir|.
int RunTraced(const Workload& workload, double seconds, const std::string& out_dir);

}  // namespace campaignbench

#endif  // CAMPAIGNBENCH_REPLAY_H_
