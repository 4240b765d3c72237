// Layer probes: direct calls into one layer's API on the workload's own
// transactions, timed by the benchmark. They run after the traced phase,
// on its database, and never feed the end-to-end metrics.
#pragma once

#include <vector>

#include "common/config.hpp"
#include "storage/database.hpp"
#include "txn/batch.hpp"

namespace qbench {

struct planner_probe {
  double us_per_txn = 0;
  double frags_per_txn = 0;
  /// Longest conflict queue / mean conflict-queue length, over all batches.
  double queue_imbalance = 0;
};

/// Plans every batch once with a single planner that owns the whole batch
/// and the run's executor count. Planning mutates the batches' runtime
/// state, so they must not be executed afterwards.
planner_probe probe_planner(std::vector<quecc::txn::batch>& batches,
                            quecc::storage::database& db,
                            const quecc::common::config& run_cfg);

struct storage_probe {
  double hash_lookup_ns = 0;     ///< point lookups on hash-indexed tables
  double ordered_lookup_ns = 0;  ///< point lookups on ordered tables
  double scan_ns_per_row = 0;    ///< range scans on ordered tables
};

/// Replays the point and range accesses of the batches' fragments against
/// the index backends (lock-free lookup_local / visit_range_in).
storage_probe probe_storage(const std::vector<quecc::txn::batch>& batches,
                            const quecc::storage::database& db,
                            quecc::part_id_t partitions);

/// Microseconds per plan_codec::encode_batch call.
double probe_encode_us(const std::vector<quecc::txn::batch>& batches);

}  // namespace qbench
