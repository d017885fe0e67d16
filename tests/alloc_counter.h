// Counts global operator new calls made by the current thread.
//
// alloc_counter.cc replaces the global allocation functions for the whole
// test binary. Counting is per thread and off by default, so every other
// test pays one thread-local branch per allocation.
#pragma once

#include <cstdint>

namespace homa::test {

/// Zero this thread's count and start counting.
void startCountingAllocations();
/// Stop counting; returns the allocations made since the start.
uint64_t stopCountingAllocations();

}  // namespace homa::test
