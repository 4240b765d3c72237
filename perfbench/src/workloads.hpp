// The benchmark's workloads: one engine configuration plus one generated
// transaction stream each. README.md gives the reason for every choice.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "workload/workload.hpp"

namespace qbench {

struct workload_spec {
  std::string name;
  std::string engine;  ///< proto::make_engine name
  quecc::common::config cfg;
  std::function<std::unique_ptr<quecc::wl::workload>()> make;
  bool open_loop = false;
  /// Fixed work per timed phase = work_tps * seconds transactions, rounded
  /// up to whole batches. Closed loop: a rate a 4-vCPU Xeon VM sustains,
  /// so the phase lasts about `seconds` there. Open loop: the Poisson
  /// arrival rate.
  double work_tps = 0;
  /// Open loop only: checkpoints per timed phase (size-closed batches make
  /// the count exact).
  std::uint32_t checkpoints = 0;
};

/// Every workload, configured for a machine with `nproc` CPUs.
std::vector<workload_spec> all_workloads(unsigned nproc);

}  // namespace qbench
