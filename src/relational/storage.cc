#include "src/relational/storage.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/failpoint.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#define XVU_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define XVU_HAVE_MMAP 0
#include <sys/stat.h>
#endif

namespace xvu {

namespace {

constexpr char kMagic[4] = {'X', 'V', 'U', 'R'};
/// v1: no checksums. v2 adds a masked CRC32C over the schema block and
/// one per column block (covering the block's size prefix, so a size
/// corrupted in isolation is caught too). v1 files still load.
constexpr uint32_t kVersionLegacy = 1;
constexpr uint32_t kVersion = 2;
/// Byte offset where the header CRC's coverage starts: everything after
/// magic + version + flags (those three are validated structurally).
constexpr size_t kCrcCoverStart = 12;

// Per-row value tags (also the declared-type tags of the schema block).
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt = 1;
constexpr uint8_t kTagString = 2;
constexpr uint8_t kTagBool = 3;

uint8_t TypeTag(ValueType t) {
  switch (t) {
    case ValueType::kNull: return kTagNull;
    case ValueType::kInt: return kTagInt;
    case ValueType::kString: return kTagString;
    case ValueType::kBool: return kTagBool;
  }
  return kTagNull;
}

Result<ValueType> TagType(uint8_t tag) {
  switch (tag) {
    case kTagNull: return ValueType::kNull;
    case kTagInt: return ValueType::kInt;
    case kTagString: return ValueType::kString;
    case kTagBool: return ValueType::kBool;
  }
  return Status::InvalidArgument("bad type tag " + std::to_string(tag));
}

// --- little-endian writer ------------------------------------------------

class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bytes(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

  size_t size() const { return buf_.size(); }
  std::string& buffer() { return buf_; }
  /// Overwrites 8 bytes at `at` with v (back-patching block sizes).
  void PatchU64(size_t at, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_[at + i] = static_cast<char>(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  /// Overwrites 4 bytes at `at` with v (back-patching block CRCs).
  void PatchU32(size_t at, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_[at + i] = static_cast<char>(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

 private:
  std::string buf_;
};

// --- bounds-checked little-endian reader ---------------------------------

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : p_(data), n_(size) {}

  Result<uint8_t> U8() {
    if (off_ + 1 > n_) return Truncated();
    return p_[off_++];
  }
  Result<uint32_t> U32() {
    if (off_ + 4 > n_) return Truncated();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(p_[off_ + i]) << (8 * i);
    }
    off_ += 4;
    return v;
  }
  Result<uint64_t> U64() {
    if (off_ + 8 > n_) return Truncated();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(p_[off_ + i]) << (8 * i);
    }
    off_ += 8;
    return v;
  }
  Result<int64_t> I64() {
    XVU_ASSIGN_OR_RETURN(uint64_t v, U64());
    return static_cast<int64_t>(v);
  }
  Result<std::string> Str() {
    XVU_ASSIGN_OR_RETURN(uint32_t len, U32());
    if (off_ + len > n_) return Truncated();
    std::string s(reinterpret_cast<const char*>(p_ + off_), len);
    off_ += len;
    return s;
  }

  size_t offset() const { return off_; }
  size_t remaining() const { return n_ - off_; }

 private:
  Status Truncated() const {
    return Status::InvalidArgument("truncated relation file (offset " +
                                   std::to_string(off_) + " of " +
                                   std::to_string(n_) + ")");
  }

  const uint8_t* p_;
  size_t n_;
  size_t off_ = 0;
};

// Reads a whole file, via mmap when available.
Result<std::string> SlurpFile(const std::string& path) {
  obs::TraceSpan span("storage.slurp");
#if XVU_HAVE_MMAP
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st;
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      size_t size = static_cast<size_t>(st.st_size);
      void* m = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (m != MAP_FAILED) {
        std::string out(static_cast<const char*>(m), size);
        ::munmap(m, size);
        ::close(fd);
        XVU_OBS_COUNT("xvu.storage.mmap_reads", 1);
        XVU_OBS_COUNT("xvu.storage.read_bytes", size);
        span.Arg("bytes", size);
        return out;
      }
    }
    ::close(fd);
  }
#endif
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::string out((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  if (in.bad()) return Status::Internal("read error on " + path);
  XVU_OBS_COUNT("xvu.storage.stream_reads", 1);
  XVU_OBS_COUNT("xvu.storage.read_bytes", out.size());
  span.Arg("bytes", out.size());
  return out;
}

Status WriteFile(const std::string& path, const std::string& data) {
  XVU_FAIL_POINT(failpoints::kStorageWrite);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out) return Status::Internal("write error on " + path);
  return Status::OK();
}

/// Crash-consistent write: the bytes land in `path + ".tmp"` first and
/// are renamed over `path` only once fully written, so a fault between
/// the two steps leaves either the old complete file or no file — never
/// a torn prefix a reader could mistake for the relation.
Status WriteFileAtomic(const std::string& path, const std::string& data) {
  obs::TraceSpan span("storage.write_atomic");
  span.Arg("bytes", data.size());
  XVU_OBS_COUNT("xvu.storage.writes", 1);
  XVU_OBS_COUNT("xvu.storage.write_bytes", data.size());
  const std::string tmp = path + ".tmp";
  XVU_RETURN_NOT_OK(WriteFile(tmp, data));
  Status rename_fault = [&]() -> Status {
    XVU_FAIL_POINT(failpoints::kStorageRename);
    return Status::OK();
  }();
  if (rename_fault.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    rename_fault = Status::Internal("cannot rename " + tmp + " to " + path);
  }
  if (!rename_fault.ok()) {
    std::remove(tmp.c_str());
    return rename_fault;
  }
  return Status::OK();
}

}  // namespace

Status StoreRelation(const Table& t, const std::string& path) {
  obs::TraceSpan span("storage.store_relation");
  XVU_OBS_LATENCY(lat, "xvu.storage.store_relation.ns");
  const Schema& schema = t.schema();
  const size_t arity = schema.arity();
  std::vector<Tuple> rows = t.Rows();

  Writer w;
  w.Bytes(kMagic, 4);
  w.U32(kVersion);
  w.U32(0);  // flags, reserved
  w.Str(schema.name());
  w.U32(static_cast<uint32_t>(arity));
  for (const Column& c : schema.columns()) {
    w.Str(c.name);
    w.U8(TypeTag(c.type));
  }
  w.U32(static_cast<uint32_t>(schema.key_indices().size()));
  for (size_t k : schema.key_indices()) w.U32(static_cast<uint32_t>(k));
  w.U64(rows.size());
  // v2 header CRC: covers the schema block and row count (everything
  // after magic/version/flags up to this field), masked LevelDB-style.
  w.U32(crc32c::Mask(crc32c::Value(w.buffer().data() + kCrcCoverStart,
                                   w.size() - kCrcCoverStart)));

  for (size_t col = 0; col < arity; ++col) {
    size_t size_at = w.size();
    w.U64(0);  // block size, patched below
    size_t crc_at = w.size();
    w.U32(0);  // block CRC, patched below
    size_t block_start = w.size();
    for (const Tuple& row : rows) w.U8(TypeTag(row[col].type()));
    for (const Tuple& row : rows) {
      const Value& v = row[col];
      switch (v.type()) {
        case ValueType::kNull: break;
        case ValueType::kInt: w.I64(v.as_int()); break;
        case ValueType::kString: w.Str(v.as_str()); break;
        case ValueType::kBool: w.U8(v.as_bool() ? 1 : 0); break;
      }
    }
    w.PatchU64(size_at, w.size() - block_start);
    // The block CRC covers the (patched) size prefix plus the payload, so
    // a corrupted size field cannot redirect the reader silently.
    uint32_t crc = crc32c::Value(w.buffer().data() + size_at, 8);
    crc = crc32c::Extend(crc, w.buffer().data() + block_start,
                         w.size() - block_start);
    w.PatchU32(crc_at, crc32c::Mask(crc));
  }
  return WriteFileAtomic(path, w.buffer());
}

Result<Table> LoadRelation(const std::string& path) {
  obs::TraceSpan span("storage.load_relation");
  XVU_OBS_LATENCY(lat, "xvu.storage.load_relation.ns");
  XVU_FAIL_POINT(failpoints::kStorageLoad);
  XVU_ASSIGN_OR_RETURN(std::string data, SlurpFile(path));
  Reader r(reinterpret_cast<const uint8_t*>(data.data()), data.size());

  if (data.size() < 4 || std::memcmp(data.data(), kMagic, 4) != 0) {
    return Status::InvalidArgument(path + " is not an XVUR relation file");
  }
  XVU_ASSIGN_OR_RETURN(uint32_t magic_skip, r.U32());
  (void)magic_skip;
  XVU_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (version != kVersion && version != kVersionLegacy) {
    return Status::InvalidArgument("unsupported XVUR version " +
                                   std::to_string(version));
  }
  const bool checksummed = version >= kVersion;
  XVU_ASSIGN_OR_RETURN(uint32_t flags, r.U32());
  (void)flags;

  XVU_ASSIGN_OR_RETURN(std::string name, r.Str());
  XVU_ASSIGN_OR_RETURN(uint32_t arity, r.U32());
  // Each column needs at least 5 schema bytes (name length + type tag);
  // a corrupt arity must not drive the reserve below (the header CRC is
  // only reachable after the schema block parses).
  if (arity > r.remaining()) {
    return Status::InvalidArgument("arity " + std::to_string(arity) +
                                   " exceeds file size");
  }
  std::vector<Column> columns;
  columns.reserve(arity);
  for (uint32_t c = 0; c < arity; ++c) {
    Column col;
    XVU_ASSIGN_OR_RETURN(col.name, r.Str());
    XVU_ASSIGN_OR_RETURN(uint8_t tag, r.U8());
    XVU_ASSIGN_OR_RETURN(col.type, TagType(tag));
    columns.push_back(std::move(col));
  }
  XVU_ASSIGN_OR_RETURN(uint32_t key_count, r.U32());
  if (key_count > r.remaining()) {
    return Status::InvalidArgument("key count " + std::to_string(key_count) +
                                   " exceeds file size");
  }
  std::vector<std::string> key_columns;
  key_columns.reserve(key_count);
  for (uint32_t k = 0; k < key_count; ++k) {
    XVU_ASSIGN_OR_RETURN(uint32_t idx, r.U32());
    if (idx >= arity) {
      return Status::InvalidArgument("key column index " +
                                     std::to_string(idx) + " out of range");
    }
    key_columns.push_back(columns[idx].name);
  }
  XVU_ASSIGN_OR_RETURN(uint64_t row_count, r.U64());
  if (checksummed) {
    const size_t covered_end = r.offset();
    XVU_ASSIGN_OR_RETURN(uint32_t stored, r.U32());
    uint32_t actual = crc32c::Value(data.data() + kCrcCoverStart,
                                    covered_end - kCrcCoverStart);
    if (crc32c::Unmask(stored) != actual) {
      return Status::DataLoss("header checksum mismatch in " + path);
    }
  }
  // A row stores at least one tag byte per column; anything claiming more
  // rows than the file could hold is corrupt (and would over-allocate).
  if (arity > 0 && row_count > r.remaining()) {
    return Status::InvalidArgument("row count " + std::to_string(row_count) +
                                   " exceeds file size");
  }

  std::vector<Tuple> rows(row_count);
  for (auto& row : rows) row.resize(arity);
  for (uint32_t col = 0; col < arity; ++col) {
    size_t size_at = r.offset();
    XVU_ASSIGN_OR_RETURN(uint64_t block_size, r.U64());
    if (checksummed) {
      XVU_ASSIGN_OR_RETURN(uint32_t stored, r.U32());
      if (block_size > r.remaining()) {
        return Status::InvalidArgument(
            "column block size " + std::to_string(block_size) +
            " exceeds file size in " + path);
      }
      // Verified before any payload byte is interpreted: the CRC covers
      // the size prefix and the whole block.
      uint32_t actual = crc32c::Value(data.data() + size_at, 8);
      actual = crc32c::Extend(actual, data.data() + r.offset(), block_size);
      if (crc32c::Unmask(stored) != actual) {
        return Status::DataLoss("column " + std::to_string(col) +
                                " checksum mismatch in " + path);
      }
    }
    size_t block_start = r.offset();
    std::vector<uint8_t> tags(row_count);
    for (uint64_t i = 0; i < row_count; ++i) {
      XVU_ASSIGN_OR_RETURN(tags[i], r.U8());
    }
    for (uint64_t i = 0; i < row_count; ++i) {
      switch (tags[i]) {
        case kTagNull:
          rows[i][col] = Value::Null();
          break;
        case kTagInt: {
          XVU_ASSIGN_OR_RETURN(int64_t v, r.I64());
          rows[i][col] = Value::Int(v);
          break;
        }
        case kTagString: {
          XVU_ASSIGN_OR_RETURN(std::string s, r.Str());
          rows[i][col] = Value::Str(std::move(s));
          break;
        }
        case kTagBool: {
          XVU_ASSIGN_OR_RETURN(uint8_t b, r.U8());
          rows[i][col] = Value::Bool(b != 0);
          break;
        }
        default:
          return Status::InvalidArgument("bad value tag " +
                                         std::to_string(tags[i]));
      }
    }
    if (r.offset() - block_start != block_size) {
      return Status::InvalidArgument(
          "column block size mismatch in " + path + " (declared " +
          std::to_string(block_size) + ", read " +
          std::to_string(r.offset() - block_start) + ")");
    }
  }

  Table table(Schema(name, std::move(columns), std::move(key_columns)));
  for (auto& row : rows) {
    XVU_RETURN_NOT_OK(table.Insert(std::move(row)));
  }
  return table;
}

Status StoreDatabase(const Database& db, const std::string& dir) {
  obs::TraceSpan span("storage.store_database");
#if XVU_HAVE_MMAP
  ::mkdir(dir.c_str(), 0755);  // EEXIST is fine; write errors surface below
#else
  _mkdir(dir.c_str());
#endif
  std::string manifest;
  for (const std::string& name : db.TableNames()) {
    const Table* t = db.GetTable(name);
    XVU_RETURN_NOT_OK(StoreRelation(*t, dir + "/" + name + ".xvur"));
    manifest += name + "\n";
  }
  // The MANIFEST is renamed into place last, so a database directory
  // interrupted mid-store either lists only fully written relations (the
  // old MANIFEST) or is complete.
  return WriteFileAtomic(dir + "/MANIFEST", manifest);
}

Result<Database> LoadDatabase(const std::string& dir) {
  obs::TraceSpan span("storage.load_database");
  XVU_ASSIGN_OR_RETURN(std::string manifest, SlurpFile(dir + "/MANIFEST"));
  Database db;
  size_t start = 0;
  while (start < manifest.size()) {
    size_t end = manifest.find('\n', start);
    if (end == std::string::npos) end = manifest.size();
    std::string name = manifest.substr(start, end - start);
    start = end + 1;
    if (name.empty()) continue;
    XVU_ASSIGN_OR_RETURN(Table t, LoadRelation(dir + "/" + name + ".xvur"));
    XVU_RETURN_NOT_OK(db.CreateTable(t.schema()));
    Table* dst = db.GetTable(t.schema().name());
    Status st = Status::OK();
    t.ForEach([&](const Tuple& row) {
      if (st.ok()) {
        Status ins = dst->Insert(row);
        if (!ins.ok()) st = ins;
      }
    });
    XVU_RETURN_NOT_OK(st);
  }
  return db;
}

}  // namespace xvu
