#include "graph/changelog.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <system_error>
#include <utility>

#include "graph/posix_io.h"

namespace bccs {

namespace {

constexpr char kSegmentMagic[8] = {'B', 'C', 'C', 'S', 'L', 'O', 'G', '1'};
constexpr char kRecordMagic[8] = {'B', 'C', 'C', 'S', 'R', 'E', 'C', '1'};
constexpr std::uint32_t kSegmentFormatVersion = 1;
/// The writer seals and rotates a segment once its file reaches this many
/// bytes, whatever ChangelogOptions::segment_blocks says.
constexpr std::size_t kSegmentMaxBytes = 4u << 20;

struct SegmentHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t reserved;
  std::uint64_t seq;
  std::uint64_t header_checksum;  // FNV-1a64 of the preceding 24 bytes
};
static_assert(sizeof(SegmentHeader) == 32, "segment header layout drifted");

struct RecordHeader {
  char magic[8];
  std::uint32_t kind;   // 0 = update batch, 1 = seal
  std::uint32_t count;  // entries (0 for a seal)
  std::uint64_t source_graph_size;      // effective source identity once this
  std::uint64_t source_graph_mtime_ns;  // record is replayed; 0/0 = unknown
  /// kind 0: FNV-1a64 of the entry bytes. kind 1: FNV-1a64 of every
  /// segment byte before this record (the whole-segment seal check).
  std::uint64_t body_checksum;
  std::uint64_t header_checksum;  // FNV-1a64 of the preceding 40 bytes
};
static_assert(sizeof(RecordHeader) == 48, "record header layout drifted");

struct LogEntry {
  std::uint32_t kind;  // 0 = insert, 1 = delete
  std::uint32_t u;
  std::uint32_t v;
  std::uint32_t reserved;
};
static_assert(sizeof(LogEntry) == 16, "log entry layout drifted");

constexpr std::uint32_t kRecordUpdates = 0;
constexpr std::uint32_t kRecordSeal = 1;

std::uint64_t HashBytes(const void* data, std::size_t len) {
  Fnv1a64 h;
  h.Update(data, len);
  return h.Digest();
}

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

std::string SegmentPath(const std::string& snapshot_path, std::uint64_t seq) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".log.%06llu",
                static_cast<unsigned long long>(seq));
  return snapshot_path + suffix;
}

struct SegFile {
  std::uint64_t seq = 0;
  std::string path;
};

/// A listing failure must NOT degrade into "no segments": recovery would
/// then believe durable segments absent and the next append's O_TRUNC open
/// would clobber one at the same sequence number. Only a missing directory
/// genuinely means no segments exist; every other error is hard.
bool ListSegmentFiles(const std::string& snapshot_path, std::vector<SegFile>* out,
                      std::string* error) {
  namespace fs = std::filesystem;
  out->clear();
  fs::path p(snapshot_path);
  fs::path dir = p.parent_path();
  if (dir.empty()) dir = ".";
  const std::string prefix = p.filename().string() + ".log.";
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec == std::errc::no_such_file_or_directory) return true;
  if (ec) {
    return Fail(error, "cannot list changelog directory " + dir.string() + ": " +
                           ec.message());
  }
  for (const fs::directory_iterator end_it; it != end_it; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string digits = name.substr(prefix.size());
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    errno = 0;
    char* end = nullptr;
    const unsigned long long seq = std::strtoull(digits.c_str(), &end, 10);
    if (errno != 0 || end == digits.c_str() || *end != '\0' || seq == 0) continue;
    out->push_back({static_cast<std::uint64_t>(seq), it->path().string()});
  }
  if (ec) {
    return Fail(error, "cannot list changelog directory " + dir.string() + ": " +
                           ec.message());
  }
  std::sort(out->begin(), out->end(),
            [](const SegFile& a, const SegFile& b) { return a.seq < b.seq; });
  return true;
}

bool ReadWholeFile(const std::string& path, std::vector<unsigned char>* out,
                   std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Fail(error, "cannot open " + path);
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  if (end < 0) return Fail(error, "cannot read " + path);
  out->resize(static_cast<std::size_t>(end));
  in.seekg(0, std::ios::beg);
  if (!out->empty() &&
      !in.read(reinterpret_cast<char*>(out->data()),
               static_cast<std::streamsize>(out->size()))) {
    return Fail(error, "cannot read " + path);
  }
  return true;
}

/// One scanned live segment.
struct ScanSeg {
  SegFile file;
  bool header_valid = false;
  bool sealed = false;
  std::size_t records = 0;  // update records (seal excluded)
  std::size_t updates = 0;
  std::uint64_t valid_bytes = 0;  // end offset of the last valid record
  std::uint64_t file_bytes = 0;
  bool torn = false;  // valid_bytes < file_bytes (tail tear)
  // Hash of [0, valid_bytes) when unsealed: what the next seal record of a
  // reopened tail continues from.
  Fnv1a64 hash;
};

struct ScanResult {
  std::vector<SegFile> stale;  // seq <= base watermark (already folded)
  std::vector<ScanSeg> live;   // ascending, contiguous from base + 1
  std::vector<EdgeUpdate> updates;
  SourceGraphInfo effective;
  bool has_stamp = false;
  std::uint64_t torn_tail_bytes = 0;
  bool dropped_tail = false;  // last segment's very header was torn
};

/// The one scan both the read-only loader and write-mode recovery share.
/// Prefix-consistent: a torn record is tolerated only at the tail of the
/// LAST segment (a crash can only tear what was last being written);
/// anywhere else it is corruption of possibly-acknowledged data → error.
bool ScanSegments(const std::string& snapshot_path, std::uint64_t base_seq,
                  ScanResult* out, std::string* error) {
  *out = ScanResult{};
  std::vector<SegFile> files;
  if (!ListSegmentFiles(snapshot_path, &files, error)) return false;
  for (const SegFile& f : files) {
    if (f.seq <= base_seq) {
      out->stale.push_back(f);
    } else {
      out->live.push_back(ScanSeg{});
      out->live.back().file = f;
    }
  }
  for (std::size_t i = 0; i < out->live.size(); ++i) {
    const std::uint64_t expect = base_seq + 1 + i;
    if (out->live[i].file.seq != expect) {
      return Fail(error, "changelog sequence gap: expected segment " +
                             std::to_string(expect) + ", found " +
                             std::to_string(out->live[i].file.seq) + " (" +
                             out->live[i].file.path + ")");
    }
  }

  for (std::size_t i = 0; i < out->live.size(); ++i) {
    ScanSeg& seg = out->live[i];
    const bool is_last = i + 1 == out->live.size();
    std::vector<unsigned char> bytes;
    if (!ReadWholeFile(seg.file.path, &bytes, error)) return false;
    seg.file_bytes = bytes.size();

    SegmentHeader header = {};
    const bool header_ok =
        bytes.size() >= sizeof(SegmentHeader) &&
        (std::memcpy(&header, bytes.data(), sizeof(header)), true) &&
        std::memcmp(header.magic, kSegmentMagic, sizeof(header.magic)) == 0 &&
        header.version == kSegmentFormatVersion && header.seq == seg.file.seq &&
        header.header_checksum == HashBytes(bytes.data(), 24);
    if (!header_ok) {
      if (!is_last) {
        return Fail(error, "corrupt changelog segment header: " + seg.file.path);
      }
      // The tail segment died before its header was durable: nothing in it
      // was ever replayable, drop the whole file.
      out->dropped_tail = true;
      out->torn_tail_bytes += bytes.size();
      seg.torn = true;
      return true;
    }
    seg.header_valid = true;

    Fnv1a64 running;  // hash of [0, off) for the seal's whole-segment check
    running.Update(bytes.data(), sizeof(SegmentHeader));
    std::size_t off = sizeof(SegmentHeader);
    seg.valid_bytes = off;
    std::size_t tear_at = 0;
    bool torn = false;
    while (off < bytes.size()) {
      const std::size_t remaining = bytes.size() - off;
      RecordHeader rec = {};
      if (remaining < sizeof(RecordHeader)) {
        tear_at = off;
        torn = true;
        break;
      }
      std::memcpy(&rec, bytes.data() + off, sizeof(rec));
      if (std::memcmp(rec.magic, kRecordMagic, sizeof(rec.magic)) != 0 ||
          rec.header_checksum != HashBytes(bytes.data() + off, 40)) {
        tear_at = off;
        torn = true;
        break;
      }
      if (rec.kind == kRecordSeal) {
        if (rec.count != 0 || rec.body_checksum != running.Digest()) {
          tear_at = off;
          torn = true;
          break;
        }
        seg.sealed = true;
        off += sizeof(RecordHeader);
        seg.valid_bytes = off;
        if (off < bytes.size()) {
          // Bytes after the seal: a torn post-seal write (possible only if
          // rotation raced a crash before the new segment existed).
          tear_at = off;
          torn = true;
        }
        break;
      }
      if (rec.kind != kRecordUpdates) {
        tear_at = off;
        torn = true;
        break;
      }
      const std::size_t body = static_cast<std::size_t>(rec.count) * sizeof(LogEntry);
      if (remaining - sizeof(RecordHeader) < body) {
        tear_at = off;
        torn = true;
        break;
      }
      const unsigned char* entries = bytes.data() + off + sizeof(RecordHeader);
      if (rec.body_checksum != HashBytes(entries, body)) {
        tear_at = off;
        torn = true;
        break;
      }
      bool entries_ok = true;
      for (std::uint32_t e = 0; e < rec.count; ++e) {
        LogEntry le;
        std::memcpy(&le, entries + e * sizeof(LogEntry), sizeof(le));
        if (le.kind > 1) {
          entries_ok = false;
          break;
        }
      }
      if (!entries_ok) {
        tear_at = off;
        torn = true;
        break;
      }
      for (std::uint32_t e = 0; e < rec.count; ++e) {
        LogEntry le;
        std::memcpy(&le, entries + e * sizeof(LogEntry), sizeof(le));
        EdgeUpdate u;
        u.kind = le.kind == 0 ? EdgeUpdateKind::kInsert : EdgeUpdateKind::kDelete;
        u.edge = {le.u, le.v};
        out->updates.push_back(u);
      }
      out->effective = SourceGraphInfo{rec.source_graph_size, rec.source_graph_mtime_ns};
      out->has_stamp = true;
      seg.records += 1;
      seg.updates += rec.count;
      running.Update(bytes.data() + off, sizeof(RecordHeader) + body);
      off += sizeof(RecordHeader) + body;
      seg.valid_bytes = off;
    }
    seg.hash = running;
    if (torn) {
      if (!is_last) {
        return Fail(error, "corrupt changelog record in sealed/non-tail segment " +
                               seg.file.path + " at offset " + std::to_string(tear_at));
      }
      seg.torn = true;
      out->torn_tail_bytes += bytes.size() - seg.valid_bytes;
    }
  }
  return true;
}

using internal::FullWrite;

}  // namespace

const char* Name(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kNone: return "none";
    case FsyncPolicy::kOnRotation: return "on-rotation";
    case FsyncPolicy::kEveryAppend: return "every-append";
  }
  return "?";
}

bool ParseFsyncPolicy(const std::string& text, FsyncPolicy* out) {
  if (text == "none") {
    *out = FsyncPolicy::kNone;
  } else if (text == "on-rotation") {
    *out = FsyncPolicy::kOnRotation;
  } else if (text == "every-append") {
    *out = FsyncPolicy::kEveryAppend;
  } else {
    return false;
  }
  return true;
}

bool FsyncFile(const std::string& path, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Fail(error, "cannot open " + path + " for fsync");
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return Fail(error, "fsync failed for " + path);
  return true;
}

bool FsyncParentDir(const std::string& path, std::string* error) {
  std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Fail(error, "cannot open directory " + dir.string() + " for fsync");
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return Fail(error, "fsync failed for directory " + dir.string());
  return true;
}

bool ScanChangelog(const std::string& snapshot_path, std::uint64_t base_seq,
                   ChangelogReplay* out, std::string* error) {
  ScanResult scan;
  if (!ScanSegments(snapshot_path, base_seq, &scan, error)) return false;
  *out = ChangelogReplay{};
  out->updates = std::move(scan.updates);
  out->effective = scan.effective;
  out->has_stamp = scan.has_stamp;
  out->stale_segments = scan.stale.size();
  out->torn_tail_bytes = scan.torn_tail_bytes;
  for (const SegFile& f : scan.stale) {
    out->stale_details.push_back({f.seq, f.path, false, 0, false});
  }
  for (const ScanSeg& seg : scan.live) {
    out->segment_details.push_back(
        {seg.file.seq, seg.file.path, seg.sealed, seg.records, seg.torn});
    if (scan.dropped_tail && seg.torn && !seg.header_valid) continue;
    ++out->segments;
    if (seg.sealed) ++out->sealed_segments;
    out->records += seg.records;
  }
  return true;
}

bool RemoveChangelogSegments(const std::string& snapshot_path, std::string* error) {
  std::vector<SegFile> files;
  if (!ListSegmentFiles(snapshot_path, &files, error)) return false;
  bool removed = false;
  for (const SegFile& f : files) {
    std::error_code ec;
    std::filesystem::remove(f.path, ec);
    if (ec) return Fail(error, "cannot remove changelog segment " + f.path);
    removed = true;
  }
  if (removed && !FsyncParentDir(snapshot_path, error)) return false;
  return true;
}

std::string CompactionTempPath(const std::string& snapshot_path) {
  return snapshot_path + ".compact.tmp";
}

// ---------------------------------------------------------------------------
// Changelog.
// ---------------------------------------------------------------------------

Changelog::Changelog(std::string snapshot_path, std::uint64_t base_seq,
                     ChangelogOptions opts)
    : snapshot_path_(std::move(snapshot_path)), base_seq_(base_seq), opts_(opts) {
  last_seq_ = base_seq;
  sealed_seq_ = base_seq;
}

Changelog::~Changelog() {
  if (tail_fd_ >= 0) ::close(tail_fd_);
}

std::unique_ptr<Changelog> Changelog::Open(const std::string& snapshot_path,
                                           std::uint64_t base_seq,
                                           const ChangelogOptions& opts,
                                           ChangelogStatus* status, std::string* error) {
  ScanResult scan;
  if (!ScanSegments(snapshot_path, base_seq, &scan, error)) return nullptr;

  ChangelogStatus st;
  st.stale_segments_removed = scan.stale.size();
  st.truncated_bytes = scan.torn_tail_bytes;
  st.dropped_tail_segment = scan.dropped_tail;

  // Repair pass. Stale segments are leftovers of a crash between a
  // compaction's rename and its segment deletion — finishing the deletion
  // here is what makes the fold idempotent.
  bool dir_dirty = false;
  for (const SegFile& f : scan.stale) {
    std::error_code ec;
    std::filesystem::remove(f.path, ec);
    if (ec) {
      Fail(error, "cannot remove folded changelog segment " + f.path);
      return nullptr;
    }
    dir_dirty = true;
  }
  std::vector<ScanSeg> live;
  for (ScanSeg& seg : scan.live) {
    if (seg.torn && !seg.header_valid) {
      // Whole tail file torn before its header was durable: nothing in it
      // replays; drop it so the next append recreates the sequence slot.
      std::error_code ec;
      std::filesystem::remove(seg.file.path, ec);
      if (ec) {
        Fail(error, "cannot remove torn changelog segment " + seg.file.path);
        return nullptr;
      }
      dir_dirty = true;
      continue;
    }
    if (seg.torn) {
      std::error_code ec;
      std::filesystem::resize_file(seg.file.path, seg.valid_bytes, ec);
      if (ec) {
        Fail(error, "cannot truncate torn changelog tail " + seg.file.path);
        return nullptr;
      }
      if (!FsyncFile(seg.file.path, error)) return nullptr;
    }
    live.push_back(std::move(seg));
  }
  if (dir_dirty && !FsyncParentDir(snapshot_path, error)) return nullptr;

  std::unique_ptr<Changelog> log(new Changelog(snapshot_path, base_seq, opts));
  // The object is still single-owned, but its state is GUARDED_BY the commit
  // lock — hold it (uncontended) so the annotations hold in Open too.
  MutexLock commit(log->commit_mutex_);
  for (const ScanSeg& seg : live) {
    log->segments_.push_back(Segment{seg.file.seq, seg.file.path, seg.sealed});
    log->last_seq_ = seg.file.seq;
  }
  for (const ScanSeg& seg : live) {
    if (!seg.sealed) break;
    log->sealed_seq_ = seg.file.seq;
  }

  // Reopen an unsealed tail for appending, carrying over the scan's running
  // whole-segment checksum, which the next seal record will stamp.
  if (!live.empty() && !live.back().sealed) {
    const ScanSeg& tail = live.back();
    const int fd = ::open(tail.file.path.c_str(), O_WRONLY | O_APPEND);
    if (fd < 0) {
      Fail(error, "cannot reopen changelog tail " + tail.file.path);
      return nullptr;
    }
    log->tail_fd_ = fd;
    log->tail_bytes_ = tail.valid_bytes;
    log->tail_records_ = tail.records;
    log->tail_hash_ = tail.hash;
  }

  st.segments = log->segments_.size();
  st.sealed_segments = log->sealed_segments();
  for (const ScanSeg& seg : live) st.records += seg.records;
  for (const ScanSeg& seg : live) st.updates += seg.updates;
  if (status != nullptr) *status = st;
  return log;
}

std::size_t Changelog::sealed_segments() const {
  std::size_t n = 0;
  for (const Segment& s : segments_) n += s.sealed ? 1 : 0;
  return n;
}

bool Changelog::Broken(std::string* error) const {
  if (!broken_) return false;
  Fail(error, "changelog is broken (a failed append could not be rolled back)");
  return true;
}

bool Changelog::RollbackTail(std::string* error, const std::string& what) {
  if (::ftruncate(tail_fd_, static_cast<off_t>(tail_bytes_)) != 0) {
    broken_ = true;
    return Fail(error, what + " (and rollback failed: the segment is now torn; "
                           "recovery will truncate it)");
  }
  // Persist the truncation so a crash cannot resurrect a fully-written,
  // checksum-valid record whose batch was already rejected to the caller.
  // Best-effort: if this sync also fails the file is still logically rolled
  // back, but — as with any WAL — a rejected-then-crashed batch may replay
  // (DESIGN.md, durability contract).
  (void)::fdatasync(tail_fd_);
  return Fail(error, what);
}

bool Changelog::OpenNewTail(std::string* error) {
  const std::uint64_t seq = last_seq_ + 1;
  const std::string path = SegmentPath(snapshot_path_, seq);
  // O_APPEND (matching the recovery reopen in Open): every write lands at
  // the current EOF, so after a rollback ftruncate the next append can
  // never leave a zero-filled hole at the fd's stale offset — a hole would
  // make recovery truncate there and drop acknowledged records behind it.
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (fd < 0) return Fail(error, "cannot create changelog segment " + path);

  SegmentHeader header = {};
  std::memcpy(header.magic, kSegmentMagic, sizeof(header.magic));
  header.version = kSegmentFormatVersion;
  header.seq = seq;
  header.header_checksum = HashBytes(&header, 24);
  if (!FullWrite(fd, &header, sizeof(header))) {
    ::close(fd);
    ::unlink(path.c_str());
    return Fail(error, "cannot write changelog segment header " + path);
  }
  if (opts_.fsync != FsyncPolicy::kNone) {
    if (::fdatasync(fd) != 0) {
      ::close(fd);
      ::unlink(path.c_str());
      return Fail(error, "fdatasync failed for " + path);
    }
    if (!FsyncParentDir(path, error)) {
      ::close(fd);
      ::unlink(path.c_str());
      return false;
    }
  }
  tail_fd_ = fd;
  tail_bytes_ = sizeof(header);
  tail_records_ = 0;
  tail_hash_ = Fnv1a64();
  tail_hash_.Update(&header, sizeof(header));
  last_seq_ = seq;
  segments_.push_back(Segment{seq, path, false});
  return true;
}

bool Changelog::Append(std::span<const EdgeUpdate> updates, const SourceGraphInfo& stamp,
                       std::string* error) {
  if (Broken(error)) return false;
  if (updates.size() > std::numeric_limits<std::uint32_t>::max()) {
    return Fail(error, "changelog record cannot hold more than 2^32-1 updates");
  }
  if (tail_fd_ < 0 && !OpenNewTail(error)) return false;

  std::vector<unsigned char> buf(sizeof(RecordHeader) + updates.size() * sizeof(LogEntry));
  for (std::size_t i = 0; i < updates.size(); ++i) {
    LogEntry le = {};
    le.kind = updates[i].kind == EdgeUpdateKind::kInsert ? 0u : 1u;
    le.u = updates[i].edge.u;
    le.v = updates[i].edge.v;
    std::memcpy(buf.data() + sizeof(RecordHeader) + i * sizeof(LogEntry), &le, sizeof(le));
  }
  RecordHeader rec = {};
  std::memcpy(rec.magic, kRecordMagic, sizeof(rec.magic));
  rec.kind = kRecordUpdates;
  rec.count = static_cast<std::uint32_t>(updates.size());
  rec.source_graph_size = stamp.size_bytes;
  rec.source_graph_mtime_ns = stamp.mtime_ns;
  rec.body_checksum =
      HashBytes(buf.data() + sizeof(RecordHeader), buf.size() - sizeof(RecordHeader));
  rec.header_checksum = HashBytes(&rec, 40);
  std::memcpy(buf.data(), &rec, sizeof(rec));

  if (!FullWrite(tail_fd_, buf.data(), buf.size())) {
    return RollbackTail(error, "changelog append write failed");
  }
  if (opts_.fsync == FsyncPolicy::kEveryAppend && ::fdatasync(tail_fd_) != 0) {
    return RollbackTail(error, "changelog append fdatasync failed");
  }
  tail_bytes_ += buf.size();
  tail_records_ += 1;
  updates_appended_ += updates.size();
  tail_hash_.Update(buf.data(), buf.size());

  if (tail_records_ >= opts_.segment_blocks || tail_bytes_ >= kSegmentMaxBytes) {
    return SealTailLocked(error);
  }
  return true;
}

bool Changelog::SealTail(std::string* error) {
  if (Broken(error)) return false;
  return SealTailLocked(error);
}

bool Changelog::SealTailLocked(std::string* error) {
  if (tail_fd_ < 0 || tail_records_ == 0) return true;  // nothing worth sealing

  RecordHeader rec = {};
  std::memcpy(rec.magic, kRecordMagic, sizeof(rec.magic));
  rec.kind = kRecordSeal;
  rec.count = 0;
  rec.body_checksum = tail_hash_.Digest();
  rec.header_checksum = HashBytes(&rec, 40);

  if (!FullWrite(tail_fd_, &rec, sizeof(rec))) {
    return RollbackTail(error, "changelog seal write failed");
  }
  if (opts_.fsync != FsyncPolicy::kNone && ::fdatasync(tail_fd_) != 0) {
    return RollbackTail(error, "changelog seal fdatasync failed");
  }
  ::close(tail_fd_);
  tail_fd_ = -1;
  tail_bytes_ = 0;
  tail_records_ = 0;
  segments_.back().sealed = true;
  sealed_seq_ = segments_.back().seq;
  return true;
}

bool Changelog::DropSegmentsThrough(std::uint64_t through_seq, std::string* error) {
  if (Broken(error)) return false;
  bool dir_dirty = false;
  std::vector<Segment> keep;
  for (Segment& s : segments_) {
    if (s.seq <= through_seq) {
      if (!s.sealed) {
        return Fail(error, "refusing to drop unsealed changelog segment " + s.path);
      }
      std::error_code ec;
      std::filesystem::remove(s.path, ec);
      if (ec) return Fail(error, "cannot remove changelog segment " + s.path);
      dir_dirty = true;
    } else {
      keep.push_back(std::move(s));
    }
  }
  segments_ = std::move(keep);
  if (dir_dirty && !FsyncParentDir(snapshot_path_, error)) return false;
  return true;
}

std::optional<RecoveredSnapshot> OpenSnapshotWithChangelog(
    const std::string& path, const ChangelogOptions& opts,
    const SnapshotLoadOptions& load_opts, std::string* error) {
  // A crash mid-compaction can leave the temp file behind; it was never
  // published (the rename did not happen), so it is garbage.
  {
    std::error_code ec;
    if (std::filesystem::remove(CompactionTempPath(path), ec)) FsyncParentDir(path);
  }

  auto bundle = LoadSnapshot(path, error, load_opts);
  if (!bundle) return std::nullopt;

  RecoveredSnapshot out;
  out.log = Changelog::Open(path, bundle->base_changelog_seq, opts, &out.status, error);
  if (out.log == nullptr) return std::nullopt;
  out.bundle = std::move(*bundle);
  return out;
}

}  // namespace bccs
