// Copy-on-write value cell.
//
// Cow<T> holds a T behind a shared_ptr. Copying a Cow shares the
// payload; write() returns a mutable reference, cloning the payload
// first iff it is shared. The engine uses this for the per-anchor path
// rows of AnchorAnalysis -- the O(|anchors| * |V|) bulk of a session's
// products -- so that forked sessions share the cold baseline and each
// fork pays only for the rows its own dirty cone touches. A full-mode
// sched::RelativeSchedule shares the length rows the same way: it is a
// view of them, not a copy.
//
// Thread-safety contract (what the parallel explorer relies on):
//   - Concurrent copies of the same Cow (forking) are safe: copying a
//     const shared_ptr only touches the atomic refcount.
//   - After forking, each fork may call write() on its own cells from
//     its own thread. write() mutates in place only when use_count()==1,
//     i.e. no other fork can still reach the payload; a count observed
//     as 1 cannot concurrently grow, because new references are only
//     minted by copying an existing Cow, and the sole remaining Cow
//     belongs to the writing thread.
//   - What is NOT allowed: mutating a Cow while another thread copies
//     that same cell. Forks must be taken before parallel mutation
//     starts (the Explorer forks from an immutable base session).
#pragma once

#include <memory>
#include <utility>

namespace relsched::base {

template <typename T>
class Cow {
 public:
  Cow() : ptr_(std::make_shared<T>()) {}
  explicit Cow(T value) : ptr_(std::make_shared<T>(std::move(value))) {}

  [[nodiscard]] const T& read() const { return *ptr_; }
  const T& operator*() const { return *ptr_; }
  const T* operator->() const { return ptr_.get(); }

  /// Mutable access; clones the payload first when it is shared with
  /// another Cow (another fork), leaving the sharers untouched.
  T& write() {
    if (ptr_.use_count() != 1) ptr_ = std::make_shared<T>(*ptr_);
    return *ptr_;
  }

  /// True when the payload is shared with at least one other Cow.
  [[nodiscard]] bool shared() const { return ptr_.use_count() > 1; }
  /// Cows sharing the payload, this one included.
  [[nodiscard]] long use_count() const { return ptr_.use_count(); }

 private:
  std::shared_ptr<T> ptr_;
};

}  // namespace relsched::base
