#include "alloc_hook.hpp"

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> gCount{0};
std::atomic<std::int64_t> gLive{0};
std::atomic<std::int64_t> gPeak{0};
thread_local std::uint64_t tlCount = 0;

void noteAlloc(void* p) {
  ++tlCount;
  gCount.fetch_add(1, std::memory_order_relaxed);
  const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      gLive.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t peak = gPeak.load(std::memory_order_relaxed);
  while (live > peak &&
         !gPeak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void release(void* p) noexcept {
  if (p == nullptr) {
    return;
  }
  gLive.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                  std::memory_order_relaxed);
  std::free(p);
}

void* allocate(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc{};
  }
  noteAlloc(p);
  return p;
}

void* allocateAligned(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size == 0 ? a : (size + a - 1) / a * a);
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) {
    throw std::bad_alloc{};
  }
  noteAlloc(p);
  return p;
}

}  // namespace

namespace perfbench::alloc {

std::uint64_t count() { return gCount.load(std::memory_order_relaxed); }
std::uint64_t threadCount() { return tlCount; }
std::int64_t liveBytes() { return gLive.load(std::memory_order_relaxed); }
std::int64_t peakBytes() { return gPeak.load(std::memory_order_relaxed); }
void resetPeak() {
  gPeak.store(gLive.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
}

}  // namespace perfbench::alloc

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return allocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocateAligned(size, align);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
