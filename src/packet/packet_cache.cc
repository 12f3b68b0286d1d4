// The per-thread packet-box cache behind Packet's operator new/delete.
//
// On the IIAS path every tunnel hop frees a box (the delivered wire
// packet, the decapsulated tunnel packet) and allocates another (the
// next hop's encapsulation, the sending stack's box).  Each thread keeps
// up to kPacketCacheCapacity freed blocks on a LIFO stack and hands the
// most recently freed, cache-warm one to the next allocation.  The stack
// is constant-initialised thread-local data, so the hot path reads no
// initialisation guard.  The thread's first cached block also creates a
// thread-local reaper, whose destructor returns the blocks to the global
// heap when the thread exits; a block freed after that goes straight to
// the heap.  Nothing in the simulation depends on a packet's address, so
// which block a box lands in cannot change a result.
//
// Cached blocks are poisoned under AddressSanitizer (the macros are
// no-ops in other builds), so a use of a freed box is still reported
// while its block waits in the cache.
#include <sanitizer/asan_interface.h>

#include <new>

#include "packet/packet.h"

namespace vini::packet {
namespace {

static_assert(alignof(Packet) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

struct Cache {
  std::size_t count = 0;
  /// Blocks this thread may cache: 0 until the reaper is armed, and 0
  /// again once it has run.
  std::size_t limit = 0;
  bool reaped = false;
  void* blocks[kPacketCacheCapacity] = {};
};

constinit thread_local Cache t_cache;

struct Reaper {
  Reaper() = default;
  Reaper(const Reaper&) = delete;
  Reaper& operator=(const Reaper&) = delete;
  ~Reaper() {
    trimPacketCache();
    t_cache.limit = 0;
    t_cache.reaped = true;
  }
};

/// Slow path of a free into a full (or not yet armed) cache: arm the
/// thread-exit reaper on the thread's first cached block.  True if the
/// block now fits.
bool armCache(Cache& c) {
  if (c.limit != 0 || c.reaped) return false;
  static thread_local Reaper reaper;
  c.limit = kPacketCacheCapacity;
  return true;
}

}  // namespace

void* Packet::operator new(std::size_t size) {
  Cache& c = t_cache;
  if (size == sizeof(Packet) && c.count != 0) {
    void* block = c.blocks[--c.count];
    ASAN_UNPOISON_MEMORY_REGION(block, sizeof(Packet));
    return block;
  }
  return ::operator new(size);
}

void Packet::operator delete(void* block, std::size_t size) noexcept {
  if (block == nullptr) return;
  Cache& c = t_cache;
  if (size == sizeof(Packet) && (c.count < c.limit || armCache(c))) {
    ASAN_POISON_MEMORY_REGION(block, sizeof(Packet));
    c.blocks[c.count++] = block;
    return;
  }
  ::operator delete(block, size);
}

std::size_t packetCacheSize() { return t_cache.count; }

void trimPacketCache() {
  Cache& c = t_cache;
  while (c.count != 0) {
    void* block = c.blocks[--c.count];
    ASAN_UNPOISON_MEMORY_REGION(block, sizeof(Packet));
    ::operator delete(block, sizeof(Packet));
  }
}

}  // namespace vini::packet
