/**
 * @file
 * Read-only memory-mapped file views.
 *
 * The out-of-core storage layer (core/shard_store.hpp) and the on-disk
 * surrogate cache (core/cache.hpp) both verify a checksummed envelope
 * and then deserialize a large float payload. Reading through
 * std::ifstream copies every byte at least twice (kernel -> stream
 * buffer -> body string) before the payload lands in its Matrix; a
 * read-only mmap exposes the page cache directly, so the checksum pass
 * and the payload memcpy each touch the bytes exactly once.
 *
 * The storage layer is POSIX-only (shard commits name their tmp files
 * with getpid() from <unistd.h>, and serve needs POSIX sockets), so
 * there is one read mechanism: a file that cannot be mapped fails to
 * open, with the errno of the refusing syscall.
 */
#pragma once

#include <cstddef>
#include <istream>
#include <optional>
#include <span>
#include <streambuf>
#include <string>

namespace mm {

/** An immutable whole-file byte view backed by a read-only mmap. */
class MappedFile
{
  public:
    MappedFile() = default;
    ~MappedFile();

    MappedFile(MappedFile &&other) noexcept;
    MappedFile &operator=(MappedFile &&other) noexcept;
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /**
     * Map @p path read-only; an empty file gives an empty view.
     * Returns std::nullopt when the file is missing, unreadable, not
     * a regular file or refused by mmap (never throws for I/O
     * errors). When @p errnoOut is non-null it receives the errno of
     * the failed syscall (0 on success), so callers can distinguish a
     * genuinely missing file (ENOENT) from a flaky medium (EIO) and
     * retry the latter. Injected read faults (fault_injection.hpp)
     * surface here as EIO.
     */
    static std::optional<MappedFile> open(const std::string &path,
                                          int *errnoOut = nullptr);

    /** The file's bytes; valid for the lifetime of this object. */
    std::span<const char> bytes() const { return {data_, size_}; }

  private:
    const char *data_ = nullptr;
    size_t size_ = 0;

    void release();
};

/**
 * std::istream over external bytes it does not own — the glue that lets
 * existing stream-based deserializers (Normalizer::load, Mlp::load)
 * read straight out of a MappedFile with zero intermediate copies.
 * The bytes must outlive the stream.
 */
class MemoryIStream : private std::streambuf, public std::istream
{
  public:
    explicit MemoryIStream(std::span<const char> bytes)
        : std::istream(static_cast<std::streambuf *>(this))
    {
        char *base = const_cast<char *>(bytes.data());
        setg(base, base, base + bytes.size());
    }
};

} // namespace mm
