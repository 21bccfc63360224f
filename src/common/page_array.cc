#include "common/page_array.h"

#include <sys/mman.h>
#include <unistd.h>

#include "common/check.h"

namespace bccs {

void* MapPages(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  BCCS_CHECK(p != MAP_FAILED) << "cannot map " << bytes << " bytes";
  return p;
}

void UnmapPages(void* p, std::size_t bytes) { munmap(p, bytes); }

void ReleasePages(void* p, std::size_t from, std::size_t to) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  from = (from + page - 1) / page * page;
  if (to > from) madvise(static_cast<char*>(p) + from, to - from, MADV_DONTNEED);
}

}  // namespace bccs
