#include "log/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cinttypes>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "log/plan_codec.hpp"
#include "log/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace quecc::log {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kCkptMagic = 0x504B4351u;  // "QCKP" little-endian
// v2: rows are recorded per table *shard* (one section per per-partition
// arena, see storage/table.hpp) so restore rebuilds each arena's rows —
// and therefore its allocation counts and rid assignment — exactly.
// v3: each table records its index backend kind; restore rejects a
// mismatch (an ordered arena restored into a hash table would silently
// lose its scan capability, and the recorded row order — the backend's
// visit contract — would no longer describe the rebuilt index). Ordered
// arenas serialize in ascending key order, and since skip-list structure
// is a pure function of the key set (storage/ordered_index.hpp), restore
// rebuilds the index bit-identically.
constexpr std::uint32_t kCkptVersion = 3;

// capture() memcpys native integers and keys straight into the image, and
// persist() hashes the image's key bytes as table::state_hash hashes the
// in-memory key; both equal the little-endian file format only on a
// little-endian host.
static_assert(std::endian::native == std::endian::little,
              "checkpoint images are built with native-endian memcpy");

// Fixed offsets within the v3 header (see checkpoint.hpp).
constexpr std::size_t kHashOffset = 4 + 4 + 4 + 8;         // state_hash
constexpr std::size_t kHeaderBytes = kHashOffset + 8 + 4;  // + table_count

/// Throw for a failed syscall on `path`, quoting errno.
[[noreturn]] void io_fail(const char* what, const std::string& path,
                          int err) {
  throw std::runtime_error(std::string("checkpoint: ") + what + " '" + path +
                           "': " + std::strerror(err));
}

/// Write `bytes` to `path` atomically: tmp file, fsync, rename, fsync dir.
/// Every step is checked; a failure before the rename unlinks the tmp
/// file, so the previous `name` (if any) stays the live one.
void atomic_write(const std::string& dir, const std::string& name,
                  std::span<const std::byte> bytes) {
  const std::string tmp = dir + "/" + name + ".tmp";
  const std::string final_path = dir + "/" + name;
  const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) io_fail("cannot open", tmp, errno);
  auto abandon = [&](const char* what, bool close_fd) {
    const int err = errno;
    if (close_fd) ::close(fd);
    ::unlink(tmp.c_str());
    io_fail(what, tmp, err);
  };
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      abandon("write failed on", true);
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  if (::fsync(fd) != 0) abandon("fsync failed on", true);
  if (::close(fd) != 0) abandon("close failed on", false);
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    abandon("rename failed on", false);
  }
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) io_fail("cannot open directory", dir, errno);
  if (::fsync(dfd) != 0) {
    const int err = errno;
    ::close(dfd);
    io_fail("fsync failed on directory", dir, err);
  }
  ::close(dfd);
}

/// Sequential writer over capture()'s pre-sized image buffer.
struct image_cursor {
  std::byte* p;

  template <class T>
  void put(T v) noexcept {
    std::memcpy(p, &v, sizeof v);
    p += sizeof v;
  }
  void put_bytes(const void* src, std::size_t n) noexcept {
    std::memcpy(p, src, n);
    p += n;
  }
};

/// database::state_hash of the database an image was captured from,
/// computed from the image alone: per row FNV-1a over key + payload,
/// summed per table, tables folded with the per-table rotate — the same
/// arithmetic as table::state_hash / database::state_hash.
std::uint64_t image_state_hash(std::span<const std::byte> body) {
  wire::reader r(body.subspan(kHeaderBytes - 4), "checkpoint");
  const std::uint32_t tables = r.u32();
  std::uint64_t h = 0;
  for (std::uint32_t i = 0; i < tables; ++i) {
    r.bytes(r.u16());  // name
    const std::size_t row_size = r.u32();
    r.u8();  // index kind
    const std::uint16_t shards = r.u16();
    std::uint64_t acc = 0;
    for (std::uint16_t s = 0; s < shards; ++s) {
      const std::uint64_t rows = r.u64();
      const std::size_t stride = sizeof(key_t) + row_size;
      const std::byte* row = r.bytes(rows * stride).data();
      for (std::uint64_t k = 0; k < rows; ++k, row += stride) {
        std::uint64_t rh = 1469598103934665603ull;
        for (std::size_t b = 0; b < stride; ++b) {
          rh ^= static_cast<std::uint64_t>(row[b]);
          rh *= 1099511628211ull;
        }
        acc += rh;
      }
    }
    h = (h << 1) ^ (h >> 63) ^ acc;
  }
  return h;
}

}  // namespace

checkpoint_image checkpointer::capture(const storage::database& db,
                                       std::uint32_t batch_id,
                                       std::uint64_t stream_pos,
                                       std::uint32_t segment_base) const {
  const std::uint64_t t0 = common::now_nanos();
  checkpoint_image img;
  img.meta.batch_id = batch_id;
  img.meta.stream_pos = stream_pos;
  img.meta.file = "checkpoint-" + std::to_string(batch_id) + ".qck";
  img.meta.segment_base = segment_base;

  // Size the image exactly, so the copy below is one allocation and a
  // run of memcpys.
  std::size_t size = kHeaderBytes + 4;  // + trailing CRC
  for (table_id_t id = 0; id < db.table_count(); ++id) {
    const storage::table& t = db.at(id);
    size += 2 + t.name().size() + 4 + 1 + 2;
    const std::size_t stride = sizeof(key_t) + t.layout().row_size();
    for (part_id_t s = 0; s < t.shard_count(); ++s) {
      size += 8 + t.live_rows_in(s) * stride;
    }
  }
  img.size = size;
  img.bytes = std::make_unique_for_overwrite<std::byte[]>(size);

  image_cursor out{img.bytes.get()};
  out.put(kCkptMagic);
  out.put(kCkptVersion);
  out.put(batch_id);
  out.put(stream_pos);
  out.put(std::uint64_t{0});  // state_hash: persist() patches it in
  out.put(static_cast<std::uint32_t>(db.table_count()));
  for (table_id_t id = 0; id < db.table_count(); ++id) {
    const storage::table& t = db.at(id);
    out.put(static_cast<std::uint16_t>(t.name().size()));
    out.put_bytes(t.name().data(), t.name().size());
    const std::size_t row_size = t.layout().row_size();
    out.put(static_cast<std::uint32_t>(row_size));
    out.put(static_cast<std::uint8_t>(t.index()));  // v3: index backend
    out.put(static_cast<std::uint16_t>(t.shard_count()));
    for (part_id_t s = 0; s < t.shard_count(); ++s) {
      const std::uint64_t rows = t.live_rows_in(s);
      out.put(rows);
      std::uint64_t seen = 0;
      t.for_each_live_in(s, [&](key_t key, storage::row_id_t rid) {
        if (seen++ >= rows) return;  // guarded below; never overrun
        out.put(key);
        out.put_bytes(t.row(rid).data(), row_size);
      });
      if (seen != rows) {
        throw std::logic_error("checkpoint: table '" + t.name() +
                               "' visited a row count other than "
                               "live_rows_in");
      }
      img.rows += rows;
    }
  }
  std::memset(out.p, 0, 4);  // CRC: persist() fills it in

  const std::uint64_t t1 = common::now_nanos();
  img.capture_nanos = t1 - t0;
  static const obs::histogram dur("checkpoint.capture_nanos");
  dur.record_nanos(img.capture_nanos);
  obs::record_span(obs::trace_stage::checkpoint_capture, t0, t1 - t0,
                   batch_id);
  return img;
}

checkpoint_meta checkpointer::persist(checkpoint_image& img) const {
  const std::uint64_t t0 = common::now_nanos();
  checkpoint_meta& meta = img.meta;
  const std::span<std::byte> body(img.bytes.get(), img.size - 4);
  meta.state_hash = image_state_hash(body);
  std::memcpy(body.data() + kHashOffset, &meta.state_hash, 8);
  const std::uint32_t crc = crc32(body);
  std::memcpy(body.data() + body.size(), &crc, 4);

  atomic_write(dir_, meta.file, {img.bytes.get(), img.size});
  write_manifest(dir_, meta);
  // The manifest now points at the new checkpoint; older snapshots (and
  // any stale .tmp from a crashed attempt) are dead weight.
  for (const auto& e : fs::directory_iterator(dir_)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("checkpoint-", 0) == 0 && name != meta.file) {
      fs::remove(e.path());
    }
  }

  const std::uint64_t t1 = common::now_nanos();
  static const obs::counter taken("checkpoint.taken_total");
  static const obs::counter rows_ctr("checkpoint.rows_total");
  static const obs::counter bytes_ctr("checkpoint.bytes_total");
  static const obs::histogram dur("checkpoint.duration_nanos");
  taken.inc();
  rows_ctr.inc(img.rows);
  bytes_ctr.inc(img.size);
  dur.record_nanos(img.capture_nanos + (t1 - t0));  // capture + persist
  obs::record_span(obs::trace_stage::checkpoint, t0, t1 - t0, meta.batch_id);
  return meta;
}

checkpoint_meta checkpointer::take(const storage::database& db,
                                   std::uint32_t batch_id,
                                   std::uint64_t stream_pos,
                                   std::uint32_t segment_base) const {
  checkpoint_image img = capture(db, batch_id, stream_pos, segment_base);
  return persist(img);
}

std::optional<checkpoint_meta> read_manifest(const std::string& dir) {
  std::ifstream in(dir + "/MANIFEST");
  if (!in) return std::nullopt;
  std::string header;
  std::getline(in, header);
  if (header != "quecc-manifest v1") {
    throw std::runtime_error("log: malformed MANIFEST header");
  }
  checkpoint_meta m;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "checkpoint") {
      ls >> m.file >> m.batch_id >> m.stream_pos >> std::hex >> m.state_hash;
      if (!ls) throw std::runtime_error("log: malformed MANIFEST checkpoint");
    } else if (key == "segment_base") {
      ls >> m.segment_base;
      if (!ls) throw std::runtime_error("log: malformed MANIFEST segment_base");
    }
  }
  return m;
}

void write_manifest(const std::string& dir, const checkpoint_meta& m) {
  std::ostringstream os;
  os << "quecc-manifest v1\n";
  os << "checkpoint " << m.file << ' ' << m.batch_id << ' ' << m.stream_pos
     << ' ' << std::hex << m.state_hash << std::dec << '\n';
  os << "segment_base " << m.segment_base << '\n';
  const std::string s = os.str();
  atomic_write(dir, "MANIFEST",
               {reinterpret_cast<const std::byte*>(s.data()), s.size()});
}

checkpoint_meta restore_checkpoint(const std::string& path,
                                   storage::database& db) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("checkpoint: cannot open '" + path + "'");
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::byte> bytes(size);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(size));
  if (bytes.size() < 4 + 4 + 4) {
    throw std::runtime_error("checkpoint: truncated file");
  }
  const std::span<const std::byte> body(bytes.data(), bytes.size() - 4);
  wire::reader tail(std::span<const std::byte>(bytes).subspan(bytes.size() - 4),
                    "checkpoint");
  if (crc32(body) != tail.u32()) {
    throw std::runtime_error("checkpoint: CRC mismatch in '" + path + "'");
  }

  wire::reader r(body, "checkpoint");
  if (r.u32() != kCkptMagic || r.u32() != kCkptVersion) {
    throw std::runtime_error("checkpoint: bad magic/version in '" + path + "'");
  }
  checkpoint_meta meta;
  meta.batch_id = r.u32();
  meta.stream_pos = r.u64();
  meta.state_hash = r.u64();
  meta.file = fs::path(path).filename().string();

  const std::uint32_t tables = r.u32();
  for (std::uint32_t i = 0; i < tables; ++i) {
    const std::string name = r.str(r.u16());
    const std::uint32_t row_size = r.u32();
    const auto index = static_cast<storage::index_kind>(r.u8());
    storage::table& t = db.by_name(name);
    if (t.layout().row_size() != row_size) {
      throw std::runtime_error("checkpoint: row size mismatch for table '" +
                               name + "'");
    }
    if (t.index() != index) {
      throw std::runtime_error(
          "checkpoint: index backend mismatch for table '" + name + "': " +
          storage::index_kind_name(index) + " recorded, " +
          storage::index_kind_name(t.index()) +
          " loaded (index configuration changed?)");
    }
    const std::uint16_t shards = r.u16();
    if (shards != t.shard_count()) {
      throw std::runtime_error(
          "checkpoint: shard count mismatch for table '" + name + "': " +
          std::to_string(shards) + " recorded, " +
          std::to_string(t.shard_count()) +
          " loaded (partition configuration changed?)");
    }
    // Drive each arena to exactly the snapshot contents: overwrite or
    // insert every snapshot row into its recorded shard, erase live keys
    // the snapshot lacks. Shard indexes double as the partition hint
    // (home_shard(s) == s), so rows land in the arena they came from.
    for (part_id_t s = 0; s < shards; ++s) {
      const std::uint64_t rows = r.u64();
      // Apply the overwrite/insert pass in *recorded file order*, never in
      // hash order: inserts allocate slab slots, so the application order
      // decides rid assignment and therefore the slab order the *next*
      // checkpoint of this arena serializes. The file order is itself the
      // slab order at take() time, which also makes restore rebuild the
      // original rid assignment. The map exists only for the erase-pass
      // membership test, where iteration order never leaks.
      std::vector<std::pair<key_t, std::span<const std::byte>>> snap_rows;
      snap_rows.reserve(rows);
      std::unordered_map<key_t, std::size_t> snap;
      snap.reserve(rows);
      for (std::uint64_t k = 0; k < rows; ++k) {
        const key_t key = r.u64();
        snap_rows.emplace_back(key, r.bytes(row_size));
        snap.emplace(key, k);
      }
      std::vector<key_t> to_erase;
      t.for_each_live_in(s, [&](key_t key, storage::row_id_t) {
        if (snap.find(key) == snap.end()) to_erase.push_back(key);
      });
      for (key_t key : to_erase) t.erase(key, s);
      for (const auto& [key, payload] : snap_rows) {
        const storage::row_id_t rid = t.lookup_local(key, s);
        if (rid != storage::kNoRow) {
          std::memcpy(t.row(rid).data(), payload.data(), row_size);
        } else if (t.insert(key, payload, s) == storage::kNoRow) {
          throw std::runtime_error("checkpoint: insert failed for table '" +
                                   name + "'");
        }
      }
    }
  }

  const std::uint64_t got = db.state_hash();
  if (got != meta.state_hash) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%016" PRIx64 " != %016" PRIx64, got,
                  meta.state_hash);
    throw std::runtime_error(std::string("checkpoint: state hash mismatch "
                                         "after restore: ") + buf);
  }
  return meta;
}

}  // namespace quecc::log
