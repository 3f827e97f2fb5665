// The three workloads. Each builds its inputs from the seed, runs a
// fixed amount of work (the serve_read closed loop runs for the
// requested seconds), checks every output and fills the report with the
// end-to-end metrics, or with the per-layer metrics when traced.
#pragma once

#include "common.hpp"

namespace fa::perfbench {

// Offline analysis: world build, the paper's experiment set, and a
// California fire-season ensemble.
void run_repro(const Options& options, Report& report);

// fa_served cold-started from a committed paper-scale store, driven
// over loopback by a seeded closed-loop client.
void run_serve_read(const Options& options, Report& report);

// In-process sharded Server over a committed store: a live feed applies
// deltas (with log appends) beside one reader, then a cold start
// replays the logged chain.
void run_feed_churn(const Options& options, Report& report);

}  // namespace fa::perfbench
