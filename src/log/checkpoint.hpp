// Batch-boundary checkpoints + the recovery manifest.
//
// The paradigm hands us consistency for free: between run_batch calls no
// transaction is in flight, so a snapshot taken at a batch boundary is a
// transaction-consistent image — no fuzzy-checkpoint machinery, no
// copy-on-write, just a walk of every table's live rows
// (table::for_each_live). A checkpoint bounds recovery work and lets the
// command log be truncated: batches at or below the checkpoint are covered
// by the snapshot and their segments can be deleted.
//
// A checkpoint is two steps so that only the copy sits on the commit path:
//   * capture() runs at the quiescent point: it sizes one buffer up front
//     and memcpys every live key and row into it — the complete file
//     image, with the state-hash field left blank;
//   * persist() needs nothing but the image, so it may run on a background
//     thread while later batches execute: it hashes the image (equal to
//     database::state_hash at capture), patches the hash in, checksums,
//     writes the file and the manifest, and prunes older checkpoints.
// take() is capture() + persist() in one call.
//
// Crash safety is by ordering + atomic rename:
//   1. at capture, rotate the log: segment_base = the fresh segment
//   2. write checkpoint-<B>.qck.tmp, fsync, rename to checkpoint-<B>.qck
//   3. write MANIFEST.tmp (new checkpoint, segment_base), fsync, rename to
//      MANIFEST; only then delete older segments / older checkpoints
// A crash in any window leaves either the old manifest with every segment
// it needs (nothing is deleted before step 3's rename is durable), or the
// new manifest whose checkpoint file is already durable — recovery never
// sees a half-written state it would trust (a torn .tmp is simply
// ignored; a torn renamed file fails its CRC).
//
// Checkpoint file format v3 (little-endian):
//   u32 magic "QCKP" | u32 version | u32 batch_id | u64 stream_pos
//   | u64 state_hash | u32 table_count
//   per table: u16 name_len | name | u32 row_size | u8 index_kind
//     | u16 shard_count
//     per shard: u64 row_count
//                | row_count * (u64 key | row_size payload bytes)
//   trailing u32 crc32 over everything before it
// Rows are recorded per per-partition arena (storage/table.hpp) so restore
// rebuilds every arena's contents — and per-shard allocation counts —
// exactly; a shard-count mismatch (partition config changed between run
// and recovery) fails loudly, as does an index-backend mismatch (v3):
// restoring an ordered table's snapshot into a hash table would silently
// turn its range scans into empty results. Ordered arenas serialize in
// ascending key order and the skip list's shape is a pure function of
// the key set, so a restored arena is bit-identical to the original.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/phase_annotations.hpp"
#include "storage/database.hpp"

namespace quecc::log {

/// Sentinel batch id meaning "no checkpoint taken yet".
inline constexpr std::uint32_t kNoCheckpoint = 0xFFFFFFFFu;

/// What the MANIFEST records about the latest checkpoint.
struct checkpoint_meta {
  std::uint32_t batch_id = kNoCheckpoint;
  std::uint64_t stream_pos = 0;   ///< txns through the checkpointed batch
  std::uint64_t state_hash = 0;   ///< database::state_hash at the boundary
  std::string file;               ///< checkpoint file name within the dir
  std::uint32_t segment_base = 0; ///< first log segment to replay from
};

/// A checkpoint captured at a batch boundary but not yet on disk: the
/// complete v3 file image, state-hash field and trailing CRC still blank.
/// Owns its bytes, so it stays valid however the database moves on.
struct checkpoint_image {
  checkpoint_meta meta;  ///< state_hash is filled in by persist()
  std::unique_ptr<std::byte[]> bytes;
  std::size_t size = 0;             ///< image bytes, trailing CRC included
  std::uint64_t rows = 0;           ///< live rows copied
  std::uint64_t capture_nanos = 0;  ///< time capture() took
};

class checkpointer {
 public:
  explicit checkpointer(std::string dir) : dir_(std::move(dir)) {}

  /// Copy `db` as of the boundary after `batch_id` into an image whose
  /// manifest entry will name `segment_base` as the first live segment
  /// (the caller has rotated the log to that index). Requires the
  /// inter-batch quiescent point: no concurrent writers. Writes no file.
  EPILOGUE_PHASE checkpoint_image capture(const storage::database& db,
                                          std::uint32_t batch_id,
                                          std::uint64_t stream_pos,
                                          std::uint32_t segment_base) const;

  /// Hash, checksum and atomically write `img`, then publish it via the
  /// manifest and prune older checkpoint files. Reads nothing but the
  /// image and the directory, so it may run on any thread, concurrently
  /// with the engine. Throws std::runtime_error on any I/O failure, after
  /// removing its temporary file; the manifest then still names the
  /// previous checkpoint. Returns the published metadata.
  checkpoint_meta persist(checkpoint_image& img) const;

  /// capture() + persist() in one call, at the quiescent point.
  EPILOGUE_PHASE checkpoint_meta take(const storage::database& db,
                                      std::uint32_t batch_id,
                                      std::uint64_t stream_pos,
                                      std::uint32_t segment_base) const;

  const std::string& dir() const noexcept { return dir_; }

 private:
  std::string dir_;
};

/// Parse MANIFEST; nullopt when absent (fresh log, no checkpoint). Throws
/// std::runtime_error on a malformed manifest.
std::optional<checkpoint_meta> read_manifest(const std::string& dir);

/// Atomically (tmp + rename) write MANIFEST.
void write_manifest(const std::string& dir, const checkpoint_meta& m);

/// Restore `path` into `db`, which must already hold the checkpoint's
/// tables (create them by loading the workload first). Every table is
/// driven to exactly the snapshot's logical contents: missing keys are
/// inserted, extra keys erased, payloads overwritten. Verifies the file
/// CRC and the recorded state hash; throws std::runtime_error on mismatch.
/// Returns the checkpoint's metadata as read from the file.
checkpoint_meta restore_checkpoint(const std::string& path,
                                   storage::database& db);

}  // namespace quecc::log
