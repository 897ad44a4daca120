// Guard for the SOI_DEADLOCK_DETECT=OFF path (the default build).
//
// The deadlock instrumentation *changes soi::Mutex's layout* when ON, so
// mixing modes across TUs would be an ODR violation. This test therefore
// builds in whatever mode the preset selected and asserts the mode's
// contract from the outside:
//
//   OFF: soi::Mutex is layout-identical to std::mutex, a name/rank
//        constructor argument is ignored, and nothing ever registers in
//        the global graph — i.e. the detector costs nothing when it is
//        compiled out.
//   ON:  the same constructor registers a node and lock/unlock feed the
//        graph.
//
// Running under both the default and `deadlock` presets (tools/check.sh
// covers both) checks both halves of the contract.

#include <mutex>
#include <string>

#include "analysis/lock_graph.h"
#include "common/mutex.h"
#include "gtest/gtest.h"

namespace soi {
namespace {

TEST(DeadlockCompileOutTest, EnabledFlagMatchesBuildDefine) {
#ifdef SOI_DEADLOCK_DETECT_ENABLED
  EXPECT_TRUE(lock_graph::kEnabled);
#else
  EXPECT_FALSE(lock_graph::kEnabled);
#endif
}

TEST(DeadlockCompileOutTest, MutexLayoutMatchesBuildMode) {
  if (lock_graph::kEnabled) {
    // The instrumented mutex carries its lock-class node pointer.
    EXPECT_GT(sizeof(Mutex), sizeof(std::mutex));
  } else {
    // Compiled out: exactly a std::mutex, nothing else.
    EXPECT_EQ(sizeof(Mutex), sizeof(std::mutex));
  }
}

TEST(DeadlockCompileOutTest, NamedMutexRegistersOnlyWhenEnabled) {
  const char* const kProbe = "test.compile_out.probe";
  Mutex mutex(kProbe, lock_graph::kRankLeaf);
  {
    MutexLock lock(mutex);
  }
  bool found = false;
  lock_graph::GraphSnapshot snapshot =
      lock_graph::LockGraph::Global().Snapshot();
  for (const lock_graph::NodeSnapshot& node : snapshot.nodes) {
    if (node.name == kProbe) found = true;
  }
  EXPECT_EQ(found, lock_graph::kEnabled);
}

TEST(DeadlockCompileOutTest, DisabledBuildGlobalGraphStaysEmpty) {
  if (lock_graph::kEnabled) {
    GTEST_SKIP() << "only meaningful with the detector compiled out";
  }
  // Even after this binary constructed named library mutexes (gtest
  // setup, the probe above), the OFF build must have registered nothing
  // and recorded nothing: zero per-lock overhead, zero global state.
  lock_graph::GraphSnapshot snapshot =
      lock_graph::LockGraph::Global().Snapshot();
  EXPECT_TRUE(snapshot.nodes.empty());
  EXPECT_TRUE(snapshot.edges.empty());
  EXPECT_TRUE(snapshot.violations.empty());
}

}  // namespace
}  // namespace soi
