// Counting replacement of the global operator new/delete (defined in
// alloc_hook.cpp, linked into the benchmark binary only).
//
// Every allocation bumps a process-wide count and a thread-local count;
// live bytes (malloc_usable_size of each block) feed a process-wide
// peak.  The trace layer reads the thread-local count to attribute
// allocations to the span open on that thread.
#pragma once

#include <cstdint>

namespace perfbench::alloc {

/// Allocations since process start, all threads.
[[nodiscard]] std::uint64_t count();
/// Allocations since process start on the calling thread.
[[nodiscard]] std::uint64_t threadCount();
/// Bytes currently allocated and not yet freed, all threads.
[[nodiscard]] std::int64_t liveBytes();
/// Highest liveBytes() since the last resetPeak().
[[nodiscard]] std::int64_t peakBytes();
/// Restart peak tracking from the current live byte count.
void resetPeak();

}  // namespace perfbench::alloc
