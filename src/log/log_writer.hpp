// Segmented append-only command log with group commit.
//
// Layout inside the log directory:
//
//   segment-<N>.qlog    append-only record segments, N monotonically
//                       increasing; rotated on size and at checkpoints
//   checkpoint-<B>.qck  consistent snapshots (see log/checkpoint.hpp)
//   MANIFEST            latest checkpoint + first live segment index
//
// Segment format: an 8-byte header (magic "QLOG", format version) followed
// by length-prefixed, CRC-framed records:
//
//   u32 payload_len | u32 crc32(payload) | u8 record_type | payload bytes
//
// A torn tail (partial frame or CRC mismatch after a crash) is detected by
// the scanner and dropped — exactly the "truncated last record" semantics
// command logging needs, since an incomplete batch record was never
// acknowledged to anyone.
//
// Group commit: append() only write()s (buffered, returns an LSN — the
// running byte offset across all segments); a background flusher fsyncs at
// most once per `group_commit_micros`, covering every record appended
// since the previous sync with one fsync. wait_durable(lsn) blocks the
// caller until the sync covering `lsn` completed — the durable-ack point
// proto::session exposes to clients.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace quecc::log {

enum class record_type : std::uint8_t {
  batch = 1,   ///< payload: plan_codec::encode_batch
  commit = 2,  ///< payload: plan_codec::encode_commit
};

struct writer_options {
  std::uint32_t group_commit_micros = 200;  ///< fsync coalescing window
  std::uint64_t segment_bytes = 64ull << 20;  ///< size-based rotation
  /// Reopen a directory that already holds segments (post-recovery
  /// resume): the newest segment's torn tail — unacknowledged by
  /// construction — is truncated away so later scans see a clean segment
  /// chain, and appending continues in a fresh segment numbered after the
  /// newest existing one. Without this flag an existing log is refused.
  bool resume = false;
};

class log_writer {
 public:
  /// Running byte offset across every segment ever written; durability is
  /// a watermark over it.
  using lsn_t = std::uint64_t;

  /// Creates `dir` when missing and opens the first segment. Throws
  /// std::runtime_error when the directory already holds segments and
  /// opts.resume is off: an old log must be recovered (log/recovery.hpp),
  /// resumed, or cleared — never silently overwritten.
  log_writer(std::string dir, writer_options opts);

  /// Final flush, then joins the flusher thread.
  ~log_writer();

  log_writer(const log_writer&) = delete;
  log_writer& operator=(const log_writer&) = delete;

  /// Append one framed record (buffered write, no fsync). Returns the LSN
  /// just past the record — pass it to wait_durable for a durable ack.
  /// Thread-safe: mu_ serializes whole frames, so the engine's submit
  /// thread (batch records) and its epilogue worker (commit records,
  /// checkpoint re-appends) may append concurrently — frames interleave
  /// but never tear, and each caller's own records keep their order.
  lsn_t append(record_type type, std::span<const std::byte> payload);

  /// Nudge the flusher without blocking (fire-and-forget durability).
  void request_flush();

  /// Block until every byte below `lsn` is fsynced. Triggers a flush
  /// rather than waiting out the group-commit timer, so a lone committer
  /// is not taxed the full window; concurrent appends since the last sync
  /// still share the one fsync.
  void wait_durable(lsn_t lsn);

  lsn_t appended_lsn() const;
  lsn_t durable_lsn() const;
  std::uint32_t segment_index() const;
  std::uint64_t fsyncs() const;  ///< total fsync calls (group-commit tests)

  /// Checkpoint support, at the capture point: fsync + close the current
  /// segment and open segment `segment_index()+1`; every byte appended so
  /// far becomes durable. Returns the new segment index — the checkpoint's
  /// segment_base. Throws std::runtime_error when the fsync fails.
  std::uint32_t rotate();

  /// Checkpoint support, after the manifest naming the new checkpoint is
  /// durable: delete every segment file below `base` — their batches are
  /// covered by that checkpoint. Touches only files, never the segment
  /// being appended, so it may run on a background thread.
  void truncate_below(std::uint32_t base) const;

  const std::string& dir() const noexcept { return dir_; }

 private:
  void open_segment(std::uint32_t index) REQUIRES(mu_);
  void flusher_main();

  const std::string dir_;
  const writer_options opts_;

  // Lock hierarchy: mu_ alone guards all writer state; durable_cv_ carries
  // the durable-LSN watermark to waiters, flush_cv_ wakes the flusher. The
  // flusher drops mu_ around the fsync itself (the one slow syscall) and
  // re-acquires it to publish durable_.
  mutable common::mutex mu_;
  common::cond_var flush_cv_;    // flusher waits here
  common::cond_var durable_cv_;  // wait_durable waits here
  int fd_ GUARDED_BY(mu_) = -1;
  std::uint32_t segment_ GUARDED_BY(mu_) = 0;
  std::uint64_t segment_bytes_written_ GUARDED_BY(mu_) = 0;
  lsn_t appended_ GUARDED_BY(mu_) = 0;
  lsn_t durable_ GUARDED_BY(mu_) = 0;
  std::uint64_t fsyncs_ GUARDED_BY(mu_) = 0;
  bool flush_requested_ GUARDED_BY(mu_) = false;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread flusher_;
};

/// One record as read back from a segment.
struct scanned_record {
  record_type type;
  std::vector<std::byte> payload;
};

/// Read every intact record of one segment into `out` (appending).
/// Returns false when the segment ends in a torn/corrupt frame (the intact
/// prefix is still appended); true on a clean end. Throws
/// std::runtime_error when the file cannot be opened or the header is not
/// a quecc log segment.
bool scan_segment(const std::string& path, std::vector<scanned_record>& out);

/// Drop a segment's torn tail in place: truncate the file to its intact
/// frame prefix, or remove it entirely when even the header is torn.
/// Returns true when the file was modified. The resume path runs this on
/// the newest segment so a later scan never stops early at a pre-crash
/// tear and silently ignores segments appended after it.
bool truncate_torn_tail(const std::string& path);

/// Segment file name for index `n` ("segment-<n>.qlog").
std::string segment_name(std::uint32_t n);

/// Existing segment indexes >= `base` in `dir`, sorted ascending.
std::vector<std::uint32_t> list_segments(const std::string& dir,
                                         std::uint32_t base);

}  // namespace quecc::log
