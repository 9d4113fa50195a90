#include "durability/framed_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/codec.h"
#include "durability/crc32c.h"

namespace fw {
namespace durability {

namespace {

std::string ErrnoText(const char* what, const std::string& path,
                      int error = errno) {
  return std::string(what) + " " + path + ": " + std::strerror(error);
}

std::function<int(const std::string&, uint64_t)>& SyncHook() {
  static std::function<int(const std::string&, uint64_t)> hook;
  return hook;
}

/// Writes every byte of `iov[0..count)` with writev(2), resuming after
/// a short write or EINTR — normally one system call.
Status WriteAll(int fd, struct iovec* iov, int count,
                const std::string& path) {
  while (count > 0) {
    ssize_t n = ::writev(fd, iov, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(ErrnoText("write", path));
    }
    // Skip the buffers written in full, then advance into the first one
    // that was written only in part.
    while (count > 0 && static_cast<size_t>(n) >= iov->iov_len) {
      n -= static_cast<ssize_t>(iov->iov_len);
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + n;
      iov->iov_len -= static_cast<size_t>(n);
    }
  }
  return Status::OK();
}

}  // namespace

FramedFileWriter::~FramedFileWriter() { Close(); }

Status FramedFileWriter::Open(const std::string& path) {
  FW_CHECK(fd_ < 0);  // One file per writer.
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::Internal(ErrnoText("open", path));
  fd_ = fd;
  bytes_ = 0;
  path_ = path;
  return Status::OK();
}

Status FramedFileWriter::Resume(const std::string& path, uint64_t size) {
  FW_CHECK(fd_ < 0);  // One file per writer.
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) return Status::Internal(ErrnoText("open", path));
  const auto offset = static_cast<off_t>(size);
  if (::ftruncate(fd, offset) != 0 ||
      ::lseek(fd, offset, SEEK_SET) != offset) {
    const Status status = Status::Internal(ErrnoText("resume", path));
    ::close(fd);
    return status;
  }
  fd_ = fd;
  bytes_ = size;
  path_ = path;
  return Status::OK();
}

Status FramedFileWriter::Append(uint8_t type, std::string_view payload) {
  if (fd_ < 0) return Status::Internal("framed writer is closed");
  if (payload.size() + 1 > kMaxFrameLength) {
    return Status::InvalidArgument("frame payload too large: " +
                                   std::to_string(payload.size()) + " bytes");
  }
  uint32_t crc = Crc32c(0, &type, 1);
  crc = Crc32c(crc, payload.data(), payload.size());
  ByteWriter header;
  header.U32(static_cast<uint32_t>(payload.size() + 1));
  header.U32(crc);
  header.U8(type);
  // Header and payload leave in one system call. A kill can still tear
  // the frame; the reader detects that.
  struct iovec iov[2] = {
      {const_cast<char*>(header.bytes().data()), header.bytes().size()},
      {const_cast<char*>(payload.data()), payload.size()}};
  FW_RETURN_IF_ERROR(WriteAll(fd_, iov, 2, path_));
  bytes_ += header.bytes().size() + payload.size();
  return Status::OK();
}

Status FramedFileWriter::Sync() {
  if (fd_ < 0) return Status::Internal("framed writer is closed");
  if (::fsync(fd_) != 0) return Status::Internal(ErrnoText("fsync", path_));
  return Status::OK();
}

Status SyncChangelog(const ChangelogSync& sync) {
  if (SyncHook()) {
    const int injected = SyncHook()(sync.path, sync.bytes);
    if (injected != 0) {
      return Status::Internal(ErrnoText("fsync", sync.path, injected));
    }
  }
  if (!sync.dir.empty()) FW_RETURN_IF_ERROR(SyncDir(sync.dir));
  if (::fsync(sync.fd) != 0) {
    return Status::Internal(ErrnoText("fsync", sync.path));
  }
  return Status::OK();
}

void SetSyncHookForTesting(
    std::function<int(const std::string& path, uint64_t bytes)> hook) {
  SyncHook() = std::move(hook);
}

Status FramedFileWriter::Close() {
  if (fd_ < 0) return Status::OK();
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) return Status::Internal(ErrnoText("close", path_));
  return Status::OK();
}

FramedBuffer::Outcome FramedBuffer::Next(Frame* frame) {
  const size_t remaining = bytes_.size() - pos_;
  if (remaining == 0) return Outcome::kEnd;
  if (remaining < 9) {  // u32 length + u32 crc + type byte.
    torn_detail_ = "truncated frame header (" + std::to_string(remaining) +
                   " trailing bytes)";
    return Outcome::kTorn;
  }
  ByteReader reader(std::string_view(bytes_).substr(pos_));
  uint32_t length = 0;
  uint32_t crc = 0;
  reader.U32(&length);
  reader.U32(&crc);
  if (length == 0 || length > kMaxFrameLength) {
    torn_detail_ = "implausible frame length " + std::to_string(length);
    return Outcome::kTorn;
  }
  if (reader.remaining() < length) {
    torn_detail_ = "truncated frame body: need " + std::to_string(length) +
                   " bytes, have " + std::to_string(reader.remaining());
    return Outcome::kTorn;
  }
  const char* body = bytes_.data() + pos_ + 8;
  if (Crc32c(0, body, length) != crc) {
    torn_detail_ = "frame checksum mismatch";
    return Outcome::kTorn;
  }
  frame->type = static_cast<uint8_t>(*body);
  frame->payload.assign(body + 1, length - 1);
  pos_ += 8 + length;
  ++frames_;
  return Outcome::kFrame;
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Status::Internal(ErrnoText("mkdir", dir));
}

Status ReadFileBytes(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::Internal(ErrnoText("open", path));
  out->clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Status::Internal(ErrnoText("read", path));
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    out->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::Internal(ErrnoText("open", dir));
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Internal(ErrnoText("fsync", dir));
  return Status::OK();
}

Status RenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return Status::Internal(ErrnoText("rename", to));
  }
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::Internal(ErrnoText("unlink", path));
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDir(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return Status::Internal(ErrnoText("opendir", dir));
  std::vector<std::string> names;
  for (;;) {
    errno = 0;
    const dirent* entry = ::readdir(handle);
    if (entry == nullptr) {
      if (errno != 0) {
        const Status status = Status::Internal(ErrnoText("readdir", dir));
        ::closedir(handle);
        return status;
      }
      break;
    }
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  ::closedir(handle);
  return names;
}

}  // namespace durability
}  // namespace fw
