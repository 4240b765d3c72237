// Distributed queue-oriented engine over the simulated cluster (paper
// Section 2.2 / the scale-out design of "Highly Available Queue-oriented
// Speculative Transaction Processing").
//
// Every node runs its own planners and executors; planning produces, per
// planner, one fragment-queue bundle per node. Bundles destined for remote
// nodes are shipped over net::network (payloads stay in shared memory —
// see net/message.hpp — the network models delivery latency and message
// counts),
// and a node's executors start draining only after every remote bundle
// addressed to the node has been delivered. Commitment needs no 2PC: the
// two deterministic phases make the commit decision implicit, so the batch
// ends with a single done/commit round through the coordinator —
// messages per batch are constant:
//
//     planners * (nodes - 1)  plan bundles
//   + (nodes - 1)             batch_done   (participant -> coordinator)
//   + (nodes - 1)             batch_commit (coordinator broadcast)
//
// independent of how many transactions are distributed — the structural
// contrast with per-transaction commit protocols that dist_calvin (and the
// test DistBehaviour.QueccCommitCostIsPerBatchNotPerTxn) measures.
//
// Like the centralized engine, batches pipeline over a ring of
// config::pipeline_depth slots: planners move on to batch i+1 (and the
// last planner ships its bundles) while batch i still executes, and the
// done/commit rounds split around the publication point the same way the
// centralized epilogue does — the done round and the global deterministic
// epilogue run at the quiescent point (pre-publish), while the commit
// broadcast and the batch accounting run on the epilogue worker after
// executors were released into batch i+1 (the broadcast mutates no
// database state, so overlapping it is safe). Execution and the epilogue
// stay sequential by batch id. All network rounds run under one mutex so
// a bundle shipment for batch i+1 never steals the done/commit messages
// of batch i.
#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/mutex.hpp"
#include "common/phase_annotations.hpp"
#include "common/thread_annotations.hpp"
#include "core/engine.hpp"
#include "core/executor.hpp"
#include "core/planner.hpp"
#include "core/spec_manager.hpp"
#include "dist/partitioner.hpp"
#include "net/network.hpp"
#include "protocols/iface.hpp"
#include "storage/dual_version.hpp"

namespace quecc::dist {

class dist_quecc_engine final : public proto::engine {
 public:
  /// `cfg` thread counts are per node: a cluster of cfg.nodes nodes runs
  /// cfg.planner_threads planners and cfg.executor_threads executors each.
  dist_quecc_engine(storage::database& db, const common::config& cfg);
  ~dist_quecc_engine() override;

  dist_quecc_engine(const dist_quecc_engine&) = delete;
  dist_quecc_engine& operator=(const dist_quecc_engine&) = delete;

  const char* name() const noexcept override { return "dist-quecc"; }
  void run_batch(txn::batch& b, common::run_metrics& m) override;
  void submit_batch(txn::batch& b, common::run_metrics& m) override;
  bool drain_batch() override;
  std::uint32_t pipeline_depth() const noexcept override {
    return cfg_.pipeline_depth;
  }

  const placement& cluster() const noexcept { return pl_; }

 private:
  PLAN_PHASE void planner_main(worker_id_t p);
  EXEC_PHASE void executor_main(worker_id_t e);
  EPILOGUE_PHASE void epilogue_main();
  /// Retire batch n: done round + global epilogue at the quiescent point,
  /// advance published_, commit broadcast + accounting, advance
  /// epilogue_done_. Runs on the epilogue worker (async mode) or the
  /// drain caller (inline mode) — exactly one of the two per engine.
  EPILOGUE_PHASE void run_epilogue(std::uint64_t n);

  /// Ship every planner's remote queue bundles and block until each node
  /// received all bundles addressed to it (one one-way latency, since the
  /// sends overlap). Runs on the last planner to finish a slot.
  PLAN_PHASE void ship_plan_bundles(std::uint32_t batch_id) REQUIRES(net_mu_);

  /// Participants report batch_done to the coordinator; after the global
  /// deterministic epilogue the coordinator broadcasts batch_commit. Both
  /// run on the drain thread.
  EPILOGUE_PHASE void done_round(std::uint32_t batch_id) REQUIRES(net_mu_);
  EPILOGUE_PHASE void commit_round(std::uint32_t batch_id) REQUIRES(net_mu_);

  void drain_expected(net::node_id_t node, net::msg_type type,
                      std::size_t expected);

  storage::database& db_;
  common::config cfg_;        ///< global view: thread counts * nodes
  placement pl_;
  net::network net_;
  std::unique_ptr<storage::dual_version_store> committed_;  // RC only
  core::spec_manager spec_;

  core::pipeline pipe_;  ///< shared planner/executor fabric (global view)

  // Stage synchronization — same scheme as core::quecc_engine: monotonic
  // batch counters guarded by mu_, a batch's slot is counter % depth.
  common::mutex mu_;
  common::cond_var cv_;
  std::uint64_t submitted_ GUARDED_BY(mu_) = 0;
  std::uint64_t ready_ GUARDED_BY(mu_) = 0;  ///< planned AND bundles landed
  std::uint64_t exec_done_ GUARDED_BY(mu_) = 0;
  /// State-mutating epilogue half done; releases executors (see
  /// core/engine.hpp — same three-stage counter scheme).
  std::uint64_t published_ GUARDED_BY(mu_) = 0;
  std::uint64_t epilogue_done_ GUARDED_BY(mu_) = 0;
  std::uint64_t drained_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;

  /// Third-stage switch, fixed at construction (see core::quecc_engine).
  bool use_async_epilogue_ = false;
  /// Topology-aware thread->cpu assignment (pin_threads/numa_bind).
  common::placement_plan plan_;

  /// Serializes every use of net_: the plan-bundle round (planner thread)
  /// and the done/commit rounds (drain thread) each consume exactly the
  /// messages they produced before releasing it, so rounds of overlapping
  /// batches cannot steal each other's messages. Never nested with mu_.
  common::mutex net_mu_;

  // Epilogue-owner state: touched only by run_epilogue, which runs on
  // exactly one thread for the engine's lifetime.
  std::uint64_t last_drain_nanos_ = 0;
  std::uint64_t last_messages_ = 0;  ///< net counter snapshot at last drain

  std::vector<std::thread> threads_;
};

}  // namespace quecc::dist
