#ifndef FW_DURABILITY_FRAMED_IO_H_
#define FW_DURABILITY_FRAMED_IO_H_

// The one file-I/O layer of the durability subsystem (DESIGN.md §16).
// Every byte the library persists rides a CRC32C-checked frame:
//
//   [u32 length][u32 crc][u8 type][payload ...]      (little-endian)
//
// where length = 1 + payload size (the type byte counts) and crc is
// CRC-32C over the type byte and payload. A reader can therefore detect
// a torn or bit-flipped tail record exactly, which is what makes
// kill-anywhere recovery possible. fw_lint bans raw fopen/ofstream
// persistence outside src/durability/ so no checkpoint bytes can bypass
// this framing.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace fw {
namespace durability {

/// Upper bound on a frame's length field. A corrupt length parses as
/// torn instead of driving a multi-gigabyte allocation.
inline constexpr uint32_t kMaxFrameLength = 1u << 30;

/// Appends frames to one file through a POSIX fd (created/truncated by
/// Open, or continued by Resume). Each Append is one writev(2) of header
/// and payload, so a frame reaches the page cache before Append returns;
/// Sync() forces it to stable storage. Single-threaded, like everything
/// the session owns — except that a changelog segment's fd may be
/// fsynced on another thread (SyncChangelog) while it stays open.
class FramedFileWriter {
 public:
  FramedFileWriter() = default;
  ~FramedFileWriter();

  FramedFileWriter(const FramedFileWriter&) = delete;
  FramedFileWriter& operator=(const FramedFileWriter&) = delete;

  Status Open(const std::string& path);
  /// Continues an existing file after its first `size` bytes — the end
  /// of its last whole frame (FramedBuffer::position()). Anything past
  /// that, a torn tail, is cut off (ftruncate) before the first Append.
  Status Resume(const std::string& path, uint64_t size);
  Status Append(uint8_t type, std::string_view payload);
  Status Sync();
  /// Closes the fd without syncing; idempotent.
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  uint64_t bytes_written() const { return bytes_; }
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  uint64_t bytes_ = 0;
  std::string path_;
};

struct Frame {
  uint8_t type = 0;
  std::string payload;
};

/// Parses frames out of an in-memory file image (durability files are
/// bounded by the snapshot cadence, so whole-file reads are fine).
class FramedBuffer {
 public:
  enum class Outcome {
    kFrame,  // *frame holds the next frame.
    kEnd,    // Clean end: the buffer ended exactly on a frame boundary.
    kTorn,   // Trailing bytes that are not a whole CRC-valid frame.
  };

  explicit FramedBuffer(std::string bytes) : bytes_(std::move(bytes)) {}

  Outcome Next(Frame* frame);

  /// Why the tail failed (after kTorn): truncated header, short payload,
  /// or CRC mismatch.
  const std::string& torn_detail() const { return torn_detail_; }
  /// Frames successfully returned so far.
  uint64_t frames_read() const { return frames_; }
  /// Byte offset just past the last frame returned: where a torn tail
  /// (if any) starts, and where FramedFileWriter::Resume continues.
  size_t position() const { return pos_; }

 private:
  std::string bytes_;
  size_t pos_ = 0;
  uint64_t frames_ = 0;
  std::string torn_detail_;
};

/// One changelog fsync: the open segment's fd and path, the bytes it
/// covers (the segment's length when the fsync was requested), and the
/// directory to fsync first — set only for the first fsync into a new or
/// resumed segment, because fsync(2) of a file does not make its
/// directory entry durable.
struct ChangelogSync {
  int fd = -1;
  std::string path;
  uint64_t bytes = 0;
  std::string dir;
};

/// The one function every changelog fsync goes through (DESIGN.md §16):
/// the background syncer's group commits and the caller's churn,
/// kEveryBatch and pre-roll syncs. Asks the test hook first, then fsyncs
/// `dir` (when set) and the segment. Any thread may run it while the fd
/// stays open.
Status SyncChangelog(const ChangelogSync& sync);

/// Test-only fault-injection seam: every SyncChangelog call first calls
/// `hook(path, bytes)` on the thread that runs the fsync (the syncer, for
/// a group commit). A nonzero answer is an errno the fsync fails with,
/// without touching the disk; the hook may also block, holding the fsync
/// in flight. Null (the default) removes it. Install it only while no
/// changelog fsync runs.
void SetSyncHookForTesting(
    std::function<int(const std::string& path, uint64_t bytes)> hook);

// Small POSIX helpers shared by the WAL and snapshot stores. All return
// descriptive Status on failure (with errno text), never abort.
Status EnsureDir(const std::string& dir);
Status ReadFileBytes(const std::string& path, std::string* out);
Status SyncDir(const std::string& dir);
/// rename(from, to): with SyncDir after it, the atomic publish step
/// snapshots use.
Status RenameFile(const std::string& from, const std::string& to);
Status RemoveFile(const std::string& path);
/// Regular-file names in `dir` (no ordering guarantee).
Result<std::vector<std::string>> ListDir(const std::string& dir);

}  // namespace durability
}  // namespace fw

#endif  // FW_DURABILITY_FRAMED_IO_H_
