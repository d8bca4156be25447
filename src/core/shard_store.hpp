/**
 * @file
 * Out-of-core storage for the Phase-1 training set.
 *
 * The paper trains its surrogate on ~10M labeled mappings (Section 4.1);
 * materializing that as two dense matrices needs multiple GB of RAM.
 * Phase 1 therefore labels fixed-size shards. This subsystem can write
 * them to disk as they are produced and read them back in verified,
 * bounded-memory units, so an on-disk Phase 1 is peak-RSS-bounded by
 * O(shardSize), not O(samples). A resident dataset skips the disk: its
 * shards are handed to a ShardedDatasetReader whose cache holds all of
 * them, and training reads both kinds through the same
 * ShardBatchSource.
 *
 * On-disk layout (all files little-endian, inside one stream directory):
 *
 *   shard-NNNNNN.mms   rows [N*shardSize, ...) of the dataset:
 *                      checksummed blob whose body is a fixed header
 *                      (shard index, row count, feature/output arity,
 *                      config hash) followed by the X block then the Y
 *                      block as raw floats.
 *   manifest.mms       written last, atomically: dataset shape, split
 *                      point, config hash and the fitted normalizers.
 *                      Its presence is the commit point — a directory
 *                      without a valid manifest is a partial run.
 *
 * Durability rules:
 *   - every file is written to a ".tmp" sibling and renamed into place
 *     (std::filesystem::rename is atomic on POSIX), so readers never
 *     observe a torn file;
 *   - every file carries a magic/version header and an FNV-1a checksum
 *     over its body; readers reject truncation, bit flips and
 *     wrong-version files with a clear diagnostic instead of
 *     deserializing garbage;
 *   - generation is restartable at shard granularity: shards that
 *     already validate for the same config hash are skipped on rerun.
 *
 * Concurrency & I/O:
 *   - shard files and the manifest are read through MappedFile
 *     (common/mapped_file.hpp): the checksum is verified over the
 *     mapped bytes and the payload is decoded straight out of them — no
 *     stream-buffer or body-string intermediaries (MM_NO_MMAP=1 forces
 *     the portable read fallback);
 *   - ShardedDatasetReader's decoded-shard cache is a sharded LRU
 *     (independently locked ways, shared_ptr-pinned entries), so
 *     mini-batch gathers fan out over ParallelContext lanes; every
 *     read runs on the thread that asked for it.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include "common/mutex.hpp"
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/retry.hpp"
#include "core/normalizer.hpp"
#include "nn/trainer.hpp"
#include "tensor/matrix.hpp"

namespace mm {

// ---------------------------------------------------------------------------
// Checksummed-blob envelope (shared by shards, the manifest and the
// surrogate cache).
// ---------------------------------------------------------------------------

/** FNV-1a offset basis. */
inline constexpr uint64_t kFnvOffset = 1469598103934665603ULL;

/** Incremental FNV-1a over @p n bytes, seedable for chaining. */
uint64_t fnv1a64(const void *data, size_t n, uint64_t h = kFnvOffset);

/** FNV-1a of a string. */
uint64_t fnv1a64(const std::string &s);

/**
 * Write `[magic][version][u64 bodySize][body][u64 fnv(body)][~magic]`
 * to @p os.
 */
void writeChecksummedBlob(std::ostream &os, uint32_t magic,
                          uint32_t version, const std::string &body);

/**
 * Classified failure of a checksummed-blob read — the triage input
 * quarantine decisions need. A ShortRead (file shorter than its
 * declared contents: truncation or a lost final write) and a Checksum
 * failure (bytes all present but disagreeing: bit flip or torn write)
 * both prove the content is bad; a BadHeader may simply be a foreign
 * or future-version file and must not be destroyed.
 */
struct BlobReadError
{
    enum class Kind
    {
        None,
        BadHeader, ///< magic/version/footer malformed or trailing bytes
        ShortRead, ///< file shorter than its declared contents
        Checksum,  ///< body present but its checksum disagrees
    };
    Kind kind = Kind::None;
    std::string message;
    uint64_t expectedChecksum = 0; ///< set for Kind::Checksum
    uint64_t actualChecksum = 0;   ///< set for Kind::Checksum
};

/**
 * Read and verify a blob written by writeChecksummedBlob over an
 * in-memory file image (e.g. a MappedFile). Returns a view of the body
 * *inside* @p file — nothing is copied, so the checksum pass is the
 * only walk over the bytes; the view is valid for the lifetime of
 * @p file's storage. On failure returns std::nullopt with the
 * classified, human-readable reason in @p err (bad magic, unsupported
 * version, truncation, a size field larger than the file, checksum
 * mismatch, trailing bytes after the footer).
 */
std::optional<std::span<const char>>
readChecksummedBlobView(std::span<const char> file, uint32_t magic,
                        uint32_t version, BlobReadError *err);

/** Why a commitFileAtomic call failed (valid when it returned false). */
struct CommitFailure
{
    std::string sysCall; ///< "open", "write", "rename"
    int errnoValue = 0;
    std::string detail;
};

/**
 * The shared commit protocol for every durable file in this codebase:
 * stream @p writeBody into a unique ".tmp" sibling of @p path, then
 * atomically rename into place, so concurrent writers never share a
 * tmp file and readers never observe a torn write. Returns false
 * (after removing the tmp) on any failure, with the failed syscall and
 * errno in @p failure when provided — callers choose whether that is
 * fatal (dataset shards) or best-effort (the surrogate cache).
 * Injected write faults (fault_injection.hpp) surface here exactly
 * like real ones.
 */
bool commitFileAtomic(const std::string &path,
                      const std::function<void(std::ostream &)> &writeBody,
                      CommitFailure *failure = nullptr);

// ---------------------------------------------------------------------------
// Shard store
// ---------------------------------------------------------------------------

/** Shape and identity of a sharded dataset. */
struct ShardLayout
{
    uint64_t rows = 0;       ///< total samples (train + test)
    uint64_t features = 0;   ///< X columns
    uint64_t outputs = 0;    ///< Y columns
    uint64_t shardSize = 0;  ///< rows per shard (last shard may be short)
    uint64_t shardCount = 0; ///< ceil(rows / shardSize)
    uint64_t trainRows = 0;  ///< split point: rows [0, trainRows) train
    uint64_t testRows = 0;   ///< rows [trainRows, rows) test
    uint64_t featureLogPrefix = 0; ///< FeatureTransform.logPrefix
    uint64_t configHash = 0; ///< hash of the generating configuration

    /** Row count of shard @p idx. */
    uint64_t
    shardRows(uint64_t idx) const
    {
        uint64_t begin = idx * shardSize;
        return begin >= rows ? 0
                             : std::min<uint64_t>(shardSize, rows - begin);
    }
};

/** Path of shard @p idx inside @p dir. */
std::string shardPath(const std::string &dir, size_t idx);

/** Path of the manifest inside @p dir. */
std::string manifestPath(const std::string &dir);

/**
 * Classified failure of a shard read; drives retry (IoFault is worth
 * another attempt), quarantine (ShortRead/Corrupt prove the bytes are
 * bad) and fail-fast (Header/Mismatch: not this store's data).
 */
struct ShardReadError
{
    enum class Cls
    {
        None,
        Missing,   ///< file does not exist (ENOENT)
        IoFault,   ///< OS-level read failure (EIO, EACCES, ...)
        ShortRead, ///< file shorter than its declared contents
        Corrupt,   ///< checksum mismatch: bit flip or torn write
        Header,    ///< not a shard file / wrong format version
        Mismatch,  ///< valid shard, wrong identity (index/arity/config)
    };
    Cls cls = Cls::None;
    std::string message;
    int errnoValue = 0;            ///< set for Missing/IoFault
    uint64_t expectedChecksum = 0; ///< set for Corrupt
    uint64_t actualChecksum = 0;   ///< set for Corrupt

    /** True when the shard's content is provably bad (quarantinable). */
    bool
    contentBad() const
    {
        return cls == Cls::ShortRead || cls == Cls::Corrupt;
    }
};

/**
 * Verified read of one shard file into @p x / @p y. Returns false with
 * a classified reason in @p err when the file is missing, unreadable,
 * truncated, corrupt, a different format version, or disagrees with
 * @p expect (arity, index, config hash).
 */
bool readShardFile(const std::string &dir, size_t idx,
                   const ShardLayout &expect, Matrix &x, Matrix &y,
                   ShardReadError *err);

/**
 * Throw the typed exception matching @p err for shard @p idx of @p dir:
 * IoError for Missing/IoFault, CorruptionError for ShortRead/Corrupt/
 * Header, FatalError for Mismatch.
 */
[[noreturn]] void throwShardReadError(const std::string &dir, size_t idx,
                                      const ShardReadError &err);

/**
 * Move shard @p idx of @p dir aside to "<shard>.quarantine" (replacing
 * any previous quarantine of the same shard), so the crash-resume
 * machinery sees a missing shard and regenerates it while the bad
 * bytes stay available for offline forensics. Returns the quarantine
 * path, or empty when the rename failed (e.g. the file is already
 * gone).
 */
std::string quarantineShard(const std::string &dir, size_t idx);

/**
 * Cheap header peek: the config hash shard @p idx was generated under,
 * or std::nullopt when the file is missing or its envelope/header is
 * not even well-formed. Reads a few dozen bytes — no checksum pass —
 * so reuse checks can reject foreign or mixed-config stores without
 * re-reading every payload.
 */
std::optional<uint64_t> peekShardConfigHash(const std::string &dir,
                                            size_t idx);

/**
 * Writes a sharded dataset: one writeShard() per shard (any order),
 * then commit() to publish the manifest. Every file is committed via
 * tmp-file + atomic rename, so a crash at any point leaves either a
 * resumable partial store (valid shards, no manifest) or a fully
 * committed one — never a torn file.
 */
class ShardStoreWriter
{
  public:
    /** Creates @p dir if needed. @p layout fixes shape and identity. */
    ShardStoreWriter(std::string dir, ShardLayout layout);

    const ShardLayout &layout() const { return shape; }

    /**
     * True when shard @p idx already exists on disk and validates
     * against this layout — the resume fast path.
     */
    bool shardValid(size_t idx) const;

    /** Atomically write shard @p idx from the first rows of @p x/@p y. */
    void writeShard(size_t idx, const Matrix &x, const Matrix &y);

    /**
     * Publish the manifest (atomic). Call once, after all shards are
     * written and the normalizers are fitted.
     */
    void commit(const Normalizer &inputNorm, const Normalizer &outputNorm);

  private:
    std::string root;
    ShardLayout shape;
};

/** Everything the manifest stores. */
struct ShardManifest
{
    ShardLayout layout;
    Normalizer inputNorm;
    Normalizer outputNorm;
};

/** Decoded shards a reader caches unless told otherwise:
 * MM_SHARD_CACHE, default 8. */
size_t defaultShardCacheShards();

/**
 * Verified reader over a committed shard store, or over resident
 * shards that never touch disk.
 *
 * All access goes through a concurrent sharded LRU of decoded shards,
 * so memory stays O(cacheShards * shardSize) regardless of dataset
 * size. A resident reader's cache holds every shard, so it never
 * misses.
 *
 * Thread-safety: pinShard() and ShardBatchSource::gather are safe to
 * call from any number of threads at once — the cache is split into
 * independently locked ways (by shard index) and hands out
 * shared_ptr-pinned shards, so a shard one thread is reading can never
 * be freed under it by another thread's eviction.
 */
class ShardedDatasetReader
{
  public:
    /** One decoded shard, shared between the cache and its pinners. */
    struct DecodedShard
    {
        Matrix x, y;
    };
    using ShardPtr = std::shared_ptr<const DecodedShard>;

    /**
     * Opens @p dir, validates the manifest and checks every shard file
     * exists (missing shards fail fast here, with the shard named).
     *
     * @param cacheShards Decoded shards kept for random access;
     *                    0 selects defaultShardCacheShards().
     */
    explicit ShardedDatasetReader(std::string dir, size_t cacheShards = 0);

    /**
     * Resident reader: @p shards (one per shard of @p manifest's layout,
     * in order) fill its cache, so it never reads a file. No
     * quarantine, no healing.
     */
    ShardedDatasetReader(ShardManifest manifest,
                         std::vector<ShardPtr> shards);

    /**
     * Read the manifest of @p dir without touching shards. Returns
     * std::nullopt when absent or invalid — used both for the
     * reuse-on-restart fast path and to detect partial runs. Transient
     * I/O faults are retried; one that persists throws IoError.
     */
    static std::optional<ShardManifest>
    tryReadManifest(const std::string &dir);

    const std::string &dir() const { return root; }
    const ShardLayout &layout() const { return manifest.layout; }
    const Normalizer &inputNorm() const { return manifest.inputNorm; }
    const Normalizer &outputNorm() const { return manifest.outputNorm; }

    /**
     * Install a regeneration callback for corrupt shards. When a read
     * hits a ShortRead/Checksum corruption, the reader quarantines the
     * bad file (rename to "*.quarantine"), invokes the healer with the
     * shard index — which is expected to rewrite a valid shard file,
     * typically by re-labeling just that shard through the dataset
     * crash-resume machinery — and retries the read. Without a healer
     * the corruption is still quarantined but then thrown as a typed
     * CorruptionError, so a process restart resumes cleanly.
     */
    void
    setShardHealer(std::function<void(size_t)> healer)
    {
        healShard = std::move(healer);
    }

    /** Decoded shards the cache holds at most. */
    size_t cacheShards() const { return cacheCapacity; }

    /** Shards quarantined by this reader so far (tests/diagnostics). */
    uint64_t quarantinedShards() const { return quarantined.load(); }

    /**
     * Verified load of on-disk shard @p idx (checksum checked every
     * read), bypassing the cache. Transient I/O faults are retried with
     * capped backoff; corruption is quarantined (and healed, when a
     * healer is installed); the remaining failures throw
     * IoError/CorruptionError/FatalError.
     */
    void readShard(size_t idx, Matrix &x, Matrix &y) const;

    /**
     * Stream rows [rowBegin, rowEnd) in order through @p fn, pinning
     * one shard at a time through the cache.
     */
    void forEachRow(size_t rowBegin, size_t rowEnd,
                    const std::function<void(size_t row,
                                             std::span<const float> x,
                                             std::span<const float> y)>
                        &fn) const;

    /** Copy raw (unnormalized) rows [rowBegin, rowBegin+rowCount). */
    void materialize(size_t rowBegin, size_t rowCount, Matrix &x,
                     Matrix &y) const;

    /**
     * Shard @p idx, decoded, through the concurrent LRU. Thread-safe;
     * the returned pin keeps the shard alive past any eviction.
     */
    ShardPtr pinShard(size_t idx) const;

    /** Always 0: reads run on the caller's thread. Kept until the
     * next benchmark change stops reporting it. */
    uint64_t prefetchedShards() const { return 0; }

    /** Always 0, like prefetchedShards(). */
    uint64_t droppedPrefetches() const { return 0; }

  private:
    /** One independently locked way of the sharded LRU. */
    struct CacheWay
    {
        struct Slot
        {
            size_t idx = size_t(-1);
            uint64_t stamp = 0;
            ShardPtr shard;
        };
        mutable Mutex m;
        std::vector<Slot> slots MM_GUARDED_BY(m);
        uint64_t tick MM_GUARDED_BY(m) = 0;
    };

    /** Split @p capacity slots into independently locked ways. */
    void initCache(size_t capacity);

    std::string root;
    ShardManifest manifest;
    RetryPolicy retryPolicy = RetryPolicy::fromEnv();
    std::function<void(size_t)> healShard;
    mutable std::atomic<uint64_t> quarantined{0};
    mutable std::vector<CacheWay> ways;
    size_t cacheCapacity = 0;
};

/**
 * BatchSource over a row range of a reader, resident or on disk,
 * normalizing rows on the fly with the fitted normalizers
 * (Normalizer::normalizeRow, the arithmetic of applyInPlace) — the one
 * way the trainer reads a Phase-1 dataset.
 *
 * gather honors its ParallelContext: row gathers fan out over the
 * lanes in fixed chunks of kGatherChunkRows (output rows are disjoint
 * and every row's value is independent of the schedule, so batches are
 * bitwise identical at any lane count), with each lane pinning shards
 * through the reader's concurrent cache.
 */
class ShardBatchSource final : public BatchSource
{
  public:
    /** Rows [rowBegin, rowBegin + rowCount) of @p reader. */
    ShardBatchSource(ShardedDatasetReader &reader, size_t rowBegin,
                     size_t rowCount);

    size_t rows() const override { return count; }
    size_t xCols() const override;
    size_t yCols() const override;
    void gather(const std::vector<size_t> &idx, size_t begin, size_t n,
                Matrix &bx, Matrix &by,
                ParallelContext *par = nullptr) override;

  private:
    ShardedDatasetReader &src;
    size_t base;
    size_t count;
};

} // namespace mm
