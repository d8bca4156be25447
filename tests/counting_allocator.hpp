/**
 * @file
 * Counting allocator for tests that measure heap use.
 *
 * Replaces every form of the global operator new/delete (plain, array,
 * nothrow and aligned, sized or not), so that each allocation on a
 * thread is charged to that thread's counters, in glibc's 64-bit chunk
 * terms: an 8-byte header, 16-byte granularity, 32-byte minimum. A test
 * can then read how much heap a structure keeps (liveHeapBytes) or
 * whether a code path allocates at all (heapBytesAllocated, which only
 * grows). Each block carries its requested size in a prefix that keeps
 * the block's alignment. Every form is replaced because a sanitizer
 * runtime would otherwise pair its own forms with these deletes.
 *
 * The replacements are definitions, so include this header in exactly
 * one translation unit of a test binary.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

namespace mm::test {

/** Chunk bytes this thread holds now. */
inline thread_local int64_t liveHeapBytes = 0;

/** Chunk bytes this thread has ever allocated. */
inline thread_local int64_t heapBytesAllocated = 0;

namespace detail {

inline int64_t
chunkBytes(size_t n)
{
    return int64_t(std::max<size_t>(32, (n + 8 + 15) & ~size_t(15)));
}

/** The size prefix: 16 bytes, or the alignment when that is larger. */
inline size_t
prefixBytes(size_t align)
{
    return std::max<size_t>(16, align);
}

inline void *
allocateCounted(size_t n, size_t align = 0) noexcept
{
    const size_t prefix = prefixBytes(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    void *base = align == 0
                     ? std::malloc(n + prefix)
                     : std::aligned_alloc(
                           align, (n + prefix + align - 1) / align * align);
    if (base == nullptr)
        return nullptr;
    std::memcpy(base, &n, sizeof(n));
    liveHeapBytes += chunkBytes(n);
    heapBytesAllocated += chunkBytes(n);
    return static_cast<char *>(base) + prefix;
}

inline void *
allocateCountedOrThrow(size_t n, size_t align = 0)
{
    if (void *p = allocateCounted(n, align))
        return p;
    throw std::bad_alloc();
}

inline void
releaseCounted(void *p, size_t align = 0) noexcept
{
    if (p == nullptr)
        return;
    char *base = static_cast<char *>(p) - prefixBytes(align);
    size_t n = 0;
    std::memcpy(&n, base, sizeof(n));
    liveHeapBytes -= chunkBytes(n);
    std::free(base);
}

} // namespace detail
} // namespace mm::test

void *
operator new(size_t n)
{
    return mm::test::detail::allocateCountedOrThrow(n);
}
void *
operator new[](size_t n)
{
    return mm::test::detail::allocateCountedOrThrow(n);
}
void *
operator new(size_t n, const std::nothrow_t &) noexcept
{
    return mm::test::detail::allocateCounted(n);
}
void *
operator new[](size_t n, const std::nothrow_t &) noexcept
{
    return mm::test::detail::allocateCounted(n);
}
void *
operator new(size_t n, std::align_val_t a)
{
    return mm::test::detail::allocateCountedOrThrow(n, size_t(a));
}
void *
operator new[](size_t n, std::align_val_t a)
{
    return mm::test::detail::allocateCountedOrThrow(n, size_t(a));
}
void *
operator new(size_t n, std::align_val_t a, const std::nothrow_t &) noexcept
{
    return mm::test::detail::allocateCounted(n, size_t(a));
}
void *
operator new[](size_t n, std::align_val_t a, const std::nothrow_t &) noexcept
{
    return mm::test::detail::allocateCounted(n, size_t(a));
}

void
operator delete(void *p) noexcept
{
    mm::test::detail::releaseCounted(p);
}
void
operator delete[](void *p) noexcept
{
    mm::test::detail::releaseCounted(p);
}
void
operator delete(void *p, size_t) noexcept
{
    mm::test::detail::releaseCounted(p);
}
void
operator delete[](void *p, size_t) noexcept
{
    mm::test::detail::releaseCounted(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    mm::test::detail::releaseCounted(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    mm::test::detail::releaseCounted(p);
}
void
operator delete(void *p, std::align_val_t a) noexcept
{
    mm::test::detail::releaseCounted(p, size_t(a));
}
void
operator delete[](void *p, std::align_val_t a) noexcept
{
    mm::test::detail::releaseCounted(p, size_t(a));
}
void
operator delete(void *p, size_t, std::align_val_t a) noexcept
{
    mm::test::detail::releaseCounted(p, size_t(a));
}
void
operator delete[](void *p, size_t, std::align_val_t a) noexcept
{
    mm::test::detail::releaseCounted(p, size_t(a));
}
void
operator delete(void *p, std::align_val_t a, const std::nothrow_t &) noexcept
{
    mm::test::detail::releaseCounted(p, size_t(a));
}
void
operator delete[](void *p, std::align_val_t a,
                  const std::nothrow_t &) noexcept
{
    mm::test::detail::releaseCounted(p, size_t(a));
}
