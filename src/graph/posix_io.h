#ifndef BCCS_GRAPH_POSIX_IO_H_
#define BCCS_GRAPH_POSIX_IO_H_

/// Raw POSIX file-descriptor I/O helpers shared by the durability layer
/// (graph/snapshot.cc, graph/changelog.cc). Every durable write and sync
/// there goes through an fd, and snapshots load through mmap; the build is
/// POSIX-only (CMakeLists.txt), so there is no portable fallback. Fds rather
/// than iostreams on purpose: fdatasync needs the fd, and the
/// fault-injection harness (tests/fault_fs) interposes the libc
/// write/fsync/rename symbols — which buffered stdio bypasses internally.

#include <cerrno>
#include <cstddef>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace bccs::internal {

/// write(2) the whole buffer, retrying short writes and EINTR.
inline bool FullWrite(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// pwrite(2) the whole buffer at `offset`, retrying short writes and EINTR.
inline bool FullWriteAt(int fd, std::size_t offset, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, p, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    offset += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace bccs::internal

#endif  // BCCS_GRAPH_POSIX_IO_H_
