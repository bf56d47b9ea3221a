// Subcommands of perfbench_driver. Each prints one JSON result line on
// stdout for perfbench/run.py and returns the process exit code.
#pragma once

#include "common.hpp"

namespace perfbench {

/// `load`: setup plus the timed closed-loop window against a live server,
/// then the in-process replay check. Flags: --workload --seed --seconds
/// --port --server-pid [--setup-only 1] [--replay-store DIR]
/// [--plant transcript|stats].
int run_load(const Flags& flags);

/// `trace`: the traced in-process twin (per-layer spans), run batch by
/// batch with a live server, an in-process MatchServer and an untraced
/// twin. Flags: --workload --seed --seconds --port --work DIR.
int run_trace(const Flags& flags);

/// `lanes`: median wall time of a cold two-stage solve of the cold_solve
/// workload's first market at the process's engine lane count.
/// Flags: --seed.
int run_lanes(const Flags& flags);

}  // namespace perfbench
