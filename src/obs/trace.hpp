// Per-batch trace recorder: span events for every pipeline stage, keyed
// by batch id and slot, written into per-thread ring buffers and exported
// as Chrome trace-event JSON (chrome://tracing, https://ui.perfetto.dev).
//
// Recording model:
//   * Each recording thread leases a ring (a fixed-capacity event array +
//     a head counter). The ring is single-writer; recording a span is two
//     clock reads plus one array store — no locks, no allocation.
//   * Rings are never deallocated (leaky, like the metrics registry), so
//     a thread's cached lease can never dangle. enable()/clear() bump a
//     generation counter instead; a lease from an older generation
//     re-acquires a fresh ring on its next record, and the stale ring
//     simply stops appearing in snapshots.
//   * Export (snapshot / write_chrome_trace) is a quiescent-point
//     operation: call it after the traced threads have been joined (the
//     harness and queccctl do). Ring event payloads are plain structs;
//     only the control fields (head, generation) are atomic.
//
// Determinism contract: spans read common::now_nanos() — a QUECC_NONDET
// leaf — and the recording API is itself QUECC_NONDET-annotated, so
// tools/quecc-analyze keeps observability clock reads at audited
// boundaries. Trace output never feeds back into execution.
//
// Chrome trace format: one complete event ("ph":"X") per span with
// microsecond "ts"/"dur", "pid" 0, "tid" = ring ordinal, and the batch
// id + slot in "args". Stage names become event names; the category is
// always "quecc".
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "common/phase_annotations.hpp"
#include "common/stats.hpp"

namespace quecc::obs {

/// Pipeline stages a span can describe, in pipeline order.
enum class trace_stage : std::uint8_t {
  admission,           ///< batch formation / admission-queue wait
  plan,                ///< planner turns a batch slice into fragment queues
  exec,                ///< executor drains its fragment queues
  epilogue,            ///< commit epilogue (spec resolution, accounting)
  log_append,          ///< log writer appending a batch's records
  fsync,               ///< group-commit fsync covering one or more batches
  checkpoint_capture,  ///< checkpoint image copied at the batch boundary
  checkpoint,          ///< checkpoint image hashed, written and published
  replay,              ///< recovery replaying a logged batch
  kStageCount
};

/// Human-readable stage name (also the Chrome trace event name).
std::string_view trace_stage_name(trace_stage s) noexcept;

/// One recorded span. `batch`/`slot` use kNoBatch/kNoSlot when the span
/// is not tied to a specific batch (e.g. a checkpoint).
struct span_event {
  std::uint64_t start_nanos = 0;
  std::uint64_t dur_nanos = 0;
  std::uint64_t batch = kNoBatch;
  std::uint32_t slot = kNoSlot;
  std::uint32_t tid = 0;  ///< ring ordinal, filled in by snapshot
  trace_stage stage = trace_stage::admission;

  static constexpr std::uint64_t kNoBatch = ~std::uint64_t{0};
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
};

/// Events each ring retains before wrapping (oldest overwritten first).
inline constexpr std::size_t kTraceRingCapacity = 1 << 14;

/// Turn span recording on/off. Off by default — tracing costs two clock
/// reads per span, so only `--trace-out` style runs enable it. Enabling
/// starts a fresh generation: previously recorded events are dropped.
void set_tracing_enabled(bool on) noexcept;
bool tracing_enabled() noexcept;

/// Drop all recorded events (bumps the generation; rings stay allocated).
void clear_trace() noexcept;

/// Record one completed span [start_nanos, start_nanos + dur_nanos).
/// No-op while tracing is disabled.
QUECC_NONDET(
    "trace span timestamps come from the monotonic stats clock; events are "
    "export-only and never feed back into planning or execution")
void record_span(trace_stage stage, std::uint64_t start_nanos,
                 std::uint64_t dur_nanos,
                 std::uint64_t batch = span_event::kNoBatch,
                 std::uint32_t slot = span_event::kNoSlot) noexcept;

/// RAII span: stamps the start on construction, records on destruction.
/// Construct cheaply even when tracing is disabled (one relaxed load +
/// one clock read when enabled; just the load when disabled).
class trace_span {
 public:
  QUECC_NONDET("reads the monotonic stats clock for a trace span start")
  explicit trace_span(trace_stage stage,
                      std::uint64_t batch = span_event::kNoBatch,
                      std::uint32_t slot = span_event::kNoSlot) noexcept
      : batch_(batch), slot_(slot), stage_(stage) {
    if (tracing_enabled()) start_ = common::now_nanos();
  }

  QUECC_NONDET("reads the monotonic stats clock for a trace span end")
  ~trace_span() {
    if (start_ != 0) {
      const std::uint64_t end = common::now_nanos();
      record_span(stage_, start_, end - start_, batch_, slot_);
    }
  }

  trace_span(const trace_span&) = delete;
  trace_span& operator=(const trace_span&) = delete;

 private:
  std::uint64_t start_ = 0;  ///< 0 = tracing was off at construction
  std::uint64_t batch_;
  std::uint32_t slot_;
  trace_stage stage_;
};

/// All events of the current generation, sorted by (tid, start_nanos) —
/// a deterministic order for a fixed set of recorded events. Quiescent-
/// point operation; see the file header.
std::vector<span_event> snapshot_trace();

/// Chrome trace-event JSON ({"traceEvents":[...]}) for the current
/// generation. Loadable by chrome://tracing and Perfetto. Quiescent-point
/// operation; see the file header.
void write_chrome_trace(std::ostream& os);

}  // namespace quecc::obs
