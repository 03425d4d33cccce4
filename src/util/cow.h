#ifndef TTRA_UTIL_COW_H_
#define TTRA_UTIL_COW_H_

#include <atomic>
#include <cstddef>
#include <utility>

namespace ttra {

/// A copy-on-write handle: copying the handle shares one T, and Mutable()
/// hands back a T that no other handle can see, cloning it first (via
/// T::Clone()) while another handle still shares it.
///
/// Ownership rule: a T is written only through the handle that holds its
/// one reference. The uniqueness test is an acquire load of the count,
/// paired with the acq_rel decrement of every handle released before it
/// (as in Rust's Arc::make_mut), so a write through Mutable() happens
/// after every read made through a handle that has since been dropped, on
/// any thread. With the count at one no other thread can take a new
/// reference, since that needs a handle to copy from.
template <typename T>
class Cow {
 public:
  explicit Cow(T value) : node_(new Node(std::move(value))) {}
  Cow(const Cow& other) noexcept : node_(other.node_) {
    node_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Cow(Cow&& other) noexcept : node_(std::exchange(other.node_, nullptr)) {}
  Cow& operator=(Cow other) noexcept {
    std::swap(node_, other.node_);
    return *this;
  }
  ~Cow() {
    if (node_ != nullptr &&
        node_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete node_;
    }
  }

  const T* operator->() const { return &node_->value; }
  const T* get() const { return &node_->value; }

  /// The shared T, made exclusive to this handle first.
  T& Mutable() {
    if (node_->refs.load(std::memory_order_acquire) != 1) {
      *this = Cow(node_->value.Clone());
    }
    return node_->value;
  }

 private:
  struct Node {
    explicit Node(T v) : value(std::move(v)) {}
    std::atomic<size_t> refs{1};
    T value;
  };
  Node* node_;
};

}  // namespace ttra

#endif  // TTRA_UTIL_COW_H_
