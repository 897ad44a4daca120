// Published<T> (common/rcu.h) alone: a generation stays alive while a
// reader that may hold it is registered, retired generations are freed
// once readers are quiescent, and concurrent readers never see a freed
// generation while a writer republishes back to back (the tsan and fault
// sweeps also report any read of freed memory).

#include "common/rcu.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace soi {
namespace {

// A generation that marks itself freed in a shared table on destruction.
struct Generation {
  Generation(int64_t id, std::vector<std::atomic<bool>>* freed)
      : id(id), freed(freed) {}
  ~Generation() { (*freed)[static_cast<size_t>(id)].store(true); }
  bool Live() const { return !(*freed)[static_cast<size_t>(id)].load(); }

  int64_t id;
  std::vector<std::atomic<bool>>* freed;
};

TEST(PublishedTest, RetiredGenerationsWaitForRegisteredReaders) {
  std::vector<std::atomic<bool>> freed(4);
  Published<Generation> published;
  EXPECT_TRUE(published.Read([](const Generation* g) { return !g; }));
  published.Publish(std::make_unique<const Generation>(0, &freed));
  EXPECT_TRUE(published.Read([&](const Generation* held) {
    // Republishing under a registered reader must not free its generation.
    published.Publish(std::make_unique<const Generation>(1, &freed));
    published.Publish(std::make_unique<const Generation>(2, &freed));
    return held->id == 0 && held->Live();
  }));
  EXPECT_FALSE(freed[0].load() || freed[1].load());
  // The first Publish after the reader left frees every retiree.
  published.Publish(std::make_unique<const Generation>(3, &freed));
  EXPECT_TRUE(freed[0].load() && freed[1].load() && freed[2].load());
  EXPECT_FALSE(freed[3].load());
}

TEST(PublishedTest, ConcurrentReadersNeverSeeAFreedGeneration) {
  constexpr int kReaders = 4;
  constexpr int64_t kGenerations = 2000;
  std::vector<std::atomic<bool>> freed(kGenerations + 1);  // outlives it
  Published<Generation> published;
  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::vector<int64_t> violations(kReaders, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      started.fetch_add(1);
      // Ids are published in order, so a reader never goes backwards;
      // -1 is "nothing published yet", -2 a freed generation.
      for (int64_t last = -1; !done.load();) {
        int64_t seen = published.Read([](const Generation* g) {
          return g == nullptr ? -1 : g->Live() ? g->id : -2;
        });
        if (seen == -2 || seen < last) ++violations[static_cast<size_t>(r)];
        last = seen;
      }
    });
  }
  while (started.load() < kReaders) std::this_thread::yield();
  for (int64_t id = 0; id < kGenerations; ++id) {
    published.Publish(std::make_unique<const Generation>(id, &freed));
  }
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  for (int64_t count : violations) EXPECT_EQ(count, 0);

  // Quiescent now: one more Publish frees every retired generation.
  published.Publish(std::make_unique<const Generation>(kGenerations, &freed));
  for (int64_t id = 0; id < kGenerations; ++id) {
    ASSERT_TRUE(freed[static_cast<size_t>(id)].load()) << "id " << id;
  }
}

}  // namespace
}  // namespace soi
