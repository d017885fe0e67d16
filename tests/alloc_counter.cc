// Replacement global allocation functions behind alloc_counter.h. They sit
// in a file of their own so the compiler never inlines them into code that
// pairs a new-expression with free().
#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace {
thread_local bool tCounting = false;
thread_local uint64_t tAllocs = 0;
}  // namespace

void* operator new(std::size_t n) {
    if (tCounting) tAllocs++;
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace homa::test {

void startCountingAllocations() {
    tAllocs = 0;
    tCounting = true;
}

uint64_t stopCountingAllocations() {
    tCounting = false;
    return tAllocs;
}

}  // namespace homa::test
