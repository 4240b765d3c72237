// Thread affinity and naming helpers.
//
// Worker threads (planners, executors, protocol workers, simulated nodes)
// are long-lived and created once per engine instance (CP.41: minimize
// thread creation/destruction). Pinning is best-effort: on machines with
// fewer cores than workers we simply oversubscribe.
#pragma once

#include <cstdint>
#include <string>

#include "common/phase_annotations.hpp"

namespace quecc::common {

/// Number of hardware threads, never less than 1.
unsigned hardware_threads() noexcept;

/// Best-effort pin of the calling thread to `cpu`. Ids past the machine's
/// cpu count wrap through the topology's node-major cpu list (so the wrap
/// lands on a real OS cpu even when cpu numbering is sparse) and bump the
/// `thread.pin_wrapped_total` counter once per wrapping thread — silent
/// oversubscription was a debugging trap (--pin-threads with more workers
/// than cores pinned several workers to one core with no trace of it).
/// Returns false when the platform refuses (non-fatal; used for benches).
bool pin_self_to(unsigned cpu) noexcept;

/// Best-effort: widen the calling thread's affinity to every cpu of the
/// machine topology. Undoes a pin inherited from the creating thread, for
/// background helpers that must not share a worker's cpu.
bool unpin_self() noexcept;

/// Best-effort thread name (shows up in debuggers / perf).
void name_self(const std::string& name) noexcept;

/// Implementation detail of backoff::yield_now, kept out of the header so
/// <thread> does not leak into every translation unit.
void yield_cpu() noexcept;

/// Busy-wait for `micros` microseconds. Used to charge simulated
/// coordination costs (e.g. H-Store's 2PC round) without sleeping the
/// thread — the point is to occupy the partition, exactly like the real
/// blocking protocol would.
QUECC_NONDET(
    "calibrated busy-wait; models coordination cost in wall time only and "
    "returns nothing — timing cannot alter transaction results")
void spin_for_micros(std::uint32_t micros) noexcept;

}  // namespace quecc::common
