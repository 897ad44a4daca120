// Fixture: seq_cst ordering outside common/rcu.h.
#include <atomic>

std::atomic<int> g_current{0};
int Load() { return g_current.load(std::memory_order_seq_cst); }  // line 5
