#ifndef SOI_COMMON_RCU_H_
#define SOI_COMMON_RCU_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace soi {

/// An immutable value republished copy-on-write and read wait-free
/// (RCU-style): QueryEngine's eps hit table, LiveWorld's current epoch.
/// Read(fn) registers in a reader counter, loads the current generation
/// (null before the first Publish), runs `fn` on it and deregisters;
/// `fn` copies out whatever must outlive the call. Publish retires (does
/// not free) the previous generation; retirees are reclaimed when a
/// later Publish observes no readers.
///
/// Locking: Published adds no lock and no lock rank. The owner's lock
/// serializes Publish — QueryEngine's cache_mutex_ (which stays a leaf)
/// or LiveWorld's writer mutex. Read never locks.
///
/// Grace period: a reader increments the counter before loading the
/// pointer, and Publish stores the pointer before loading the counter,
/// all seq_cst. In that single total order, a reader the counter load
/// misses has either finished (its release decrement happens-before the
/// load) or has yet to load the pointer and will see this generation or
/// a later one. So a zero count proves no reader can reach a retired
/// generation; with readers in flight, retirees wait for a later Publish.
///
/// Why not std::atomic<std::shared_ptr>: libstdc++'s _Sp_atomic releases
/// its embedded spinlock with a relaxed RMW, so its plain control-block
/// accesses carry no happens-before edge — formally a data race, and
/// TSan reports it.
template <typename T>
class Published {
 public:
  Published() = default;
  Published(const Published&) = delete;
  Published& operator=(const Published&) = delete;

  void Publish(std::unique_ptr<const T> value) {
    current_.store(value.get(), std::memory_order_seq_cst);
    storage_.push_back(std::move(value));
    if (storage_.size() > 1 &&
        readers_.load(std::memory_order_seq_cst) == 0) {
      storage_.erase(storage_.begin(), storage_.end() - 1);
    }
  }

  template <typename Fn>
  auto Read(Fn&& fn) const {
    readers_.fetch_add(1, std::memory_order_seq_cst);
    auto result = fn(current_.load(std::memory_order_seq_cst));
    readers_.fetch_sub(1, std::memory_order_release);
    return result;
  }

 private:
  std::atomic<const T*> current_{nullptr};
  mutable std::atomic<int64_t> readers_{0};
  // Back: the current generation; the rest: retired, possibly in use.
  std::vector<std::unique_ptr<const T>> storage_;
};

}  // namespace soi

#endif  // SOI_COMMON_RCU_H_
