// The benchmark's workloads. Each run_* function sets up its inputs from
// args.seed, measures for args.seconds (or, with args.trace, runs the
// traced composition), checks the outputs, and returns what it measured.
#pragma once

#include <string>

#include "harness/common.hpp"

namespace perfbench {

/// farness-sampled, farness-spine-compact, bc-sampled.
bool is_batch_workload(const std::string& name);
Outcome run_batch(const Args& args);
void describe_batch();

/// daemon-mix: brics_serve driven over three connections.
bool is_daemon_workload(const std::string& name);
Outcome run_daemon(const Args& args, const std::string& serve_bin);
void describe_daemon();

}  // namespace perfbench
