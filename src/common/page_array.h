#ifndef BCCS_COMMON_PAGE_ARRAY_H_
#define BCCS_COMMON_PAGE_ARRAY_H_

#include <cstddef>
#include <type_traits>
#include <utility>

namespace bccs {

/// Raw page-mapping calls behind PageArray (common/page_array.cc).
void* MapPages(std::size_t bytes);
void UnmapPages(void* p, std::size_t bytes);
/// Returns the whole pages inside bytes [from, to) past `p` to the OS.
void ReleasePages(void* p, std::size_t from, std::size_t to);

/// An uninitialized array in its own anonymous mapping. Pages become
/// resident only once written, and they go back to the OS when the array is
/// destroyed or remapped. A large malloc'ed block gives no such promise:
/// glibc raises its dynamic mmap threshold to the size of the largest block
/// freed (up to 32 MB, mallopt(3)), so later blocks of that size come from
/// the heap and stay resident in the arena after they are freed. Arrays
/// whose lifetime is an epoch or a candidate therefore live here.
template <typename T>
class PageArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  PageArray() = default;
  explicit PageArray(std::size_t capacity) { Map(capacity); }
  PageArray(PageArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        written_(std::exchange(other.written_, 0)) {}
  PageArray& operator=(PageArray&& other) noexcept {
    if (this != &other) {
      Unmap();
      data_ = std::exchange(other.data_, nullptr);
      capacity_ = std::exchange(other.capacity_, 0);
      written_ = std::exchange(other.written_, 0);
    }
    return *this;
  }
  ~PageArray() { Unmap(); }

  T* data() const { return data_; }
  std::size_t capacity() const { return capacity_; }

  /// Replaces the mapping with one of `capacity` entries (none for 0).
  void Map(std::size_t capacity) {
    Unmap();
    if (capacity == 0) return;
    data_ = static_cast<T*>(MapPages(capacity * sizeof(T)));
    capacity_ = capacity;
  }

  /// Notes that entries [0, used) are written and returns the pages of
  /// entries past them that an earlier use wrote.
  void Trim(std::size_t used) {
    if (written_ > used) ReleasePages(data_, used * sizeof(T), written_ * sizeof(T));
    written_ = used;
  }

 private:
  void Unmap() {
    if (data_ != nullptr) UnmapPages(data_, capacity_ * sizeof(T));
    data_ = nullptr;
    capacity_ = written_ = 0;
  }

  T* data_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t written_ = 0;
};

}  // namespace bccs

#endif  // BCCS_COMMON_PAGE_ARRAY_H_
