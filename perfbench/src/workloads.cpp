#include "workloads.hpp"

#include <algorithm>

#include "workload/tpcc.hpp"
#include "workload/ycsb.hpp"

namespace qbench {

using quecc::common::config;
using quecc::common::exec_model;
using quecc::common::isolation;

namespace {

/// Engine settings shared by every workload. Planners + executors = nproc:
/// one planner per four CPUs, since at depth 2 planning overlaps execution
/// and on a 4-CPU box 1 planner + 3 executors outran 2 + 2.
config engine_cfg(unsigned nproc) {
  config c;
  const unsigned planners = std::max(1u, nproc / 4);
  c.planner_threads = static_cast<quecc::worker_id_t>(planners);
  c.executor_threads =
      static_cast<quecc::worker_id_t>(std::max(1u, nproc - planners));
  c.pipeline_depth = 2;
  c.execution = exec_model::speculative;
  c.iso = isolation::serializable;
  c.partitions = 4;
  // Compact placement: executors on the first CPUs, then the planner; with
  // planners + executors = nproc the epilogue worker wraps onto cpu0 beside
  // executor 0. The quecc closed loops pin their client thread beside the
  // planner (run_phase in main.cpp).
  c.pin_threads = true;
  return c;
}

/// YCSB: 10 ops per txn, half reads and half read-modify-writes, zipf 0.6.
std::function<std::unique_ptr<quecc::wl::workload>()> ycsb(
    std::uint64_t rows, double multi_partition_ratio = 0) {
  return [rows, multi_partition_ratio] {
    quecc::wl::ycsb_config y;
    y.table_size = rows;
    y.ops_per_txn = 10;
    y.read_ratio = 0.5;
    y.zipf_theta = 0.6;
    y.partitions = 4;
    y.multi_partition_ratio = multi_partition_ratio;
    y.rmw = true;
    return std::make_unique<quecc::wl::ycsb>(y);
  };
}

}  // namespace

std::vector<workload_spec> all_workloads(unsigned nproc) {
  std::vector<workload_spec> out;

  {
    workload_spec s;
    s.name = "ycsb_big";
    s.engine = "quecc";
    s.cfg = engine_cfg(nproc);
    s.cfg.batch_size = 8192;
    s.make = ycsb(2u << 20);
    s.work_tps = 400'000;
    out.push_back(std::move(s));
  }
  {
    workload_spec s;
    s.name = "tpcc_full_spec";
    s.engine = "quecc";
    s.cfg = engine_cfg(nproc);
    s.cfg.batch_size = 512;
    s.make = [] {
      quecc::wl::tpcc_config t;
      t.warehouses = 4;
      t.partitions = 4;
      t.scan_profiles = true;
      return std::make_unique<quecc::wl::tpcc>(t);
    };
    s.work_tps = 60'000;
    out.push_back(std::move(s));
  }
  {
    workload_spec s;
    s.name = "ycsb_durable_open";
    s.engine = "quecc";
    s.cfg = engine_cfg(nproc);
    s.cfg.batch_size = 512;
    // Batches close on size: the deadline is 25x the ~20 ms a batch takes
    // to fill at the offered rate, so the batch count, and with it the
    // checkpoint count, is exact.
    s.cfg.batch_deadline_micros = 500'000;
    // Room for every arrival of a checkpoint stall, so the generator never
    // blocks on a full admission queue.
    s.cfg.admission_capacity = 1u << 18;
    s.cfg.durable = true;
    s.make = ycsb(1u << 19);
    s.open_loop = true;
    s.work_tps = 25'000;
    s.checkpoints = 2;
    out.push_back(std::move(s));
  }
  {
    workload_spec s;
    s.name = "ycsb_dist";
    s.engine = "dist-quecc";
    s.cfg = engine_cfg(nproc);
    s.cfg.nodes = 2;
    s.cfg.planner_threads = 1;
    s.cfg.executor_threads = 1;
    s.cfg.batch_size = 8192;
    s.make = ycsb(1u << 20, 0.2);
    s.work_tps = 400'000;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace qbench
