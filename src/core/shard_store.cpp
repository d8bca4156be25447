#include "core/shard_store.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/mapped_file.hpp"
#include "common/string_util.hpp"

namespace mm {

namespace {

constexpr uint32_t kShardMagic = 0x4d4d5331;    // "MMS1"
constexpr uint32_t kManifestMagic = 0x4d4d4d46; // "MMMF"
constexpr uint32_t kStoreVersion = 2; // 2: word-lane envelope checksum

constexpr uint64_t kFnvPrime = 1099511628211ULL;

// Envelope layout: [u32 magic][u32 version][u64 size][body]
//                  [u64 bodyChecksum(body)][u32 ~magic].
constexpr size_t kBlobHeadBytes = 2 * sizeof(uint32_t) + sizeof(uint64_t);
constexpr size_t kBlobFootBytes = sizeof(uint64_t) + sizeof(uint32_t);

template <typename T>
void
put(std::ostream &os, T v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

template <typename T>
bool
get(std::istream &is, T &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    return bool(is);
}

/**
 * commitFileAtomic for a checksummed blob; transient failures retry
 * with capped backoff, persistent ones raise a typed error (IoError,
 * or ResourceError for a full disk) — losing dataset shards silently
 * would corrupt the run.
 */
void
commitBlobFile(const std::string &path, uint32_t magic, uint32_t version,
               const std::string &body)
{
    retryTransient(RetryPolicy::fromEnv(), [&] {
        CommitFailure failure;
        if (commitFileAtomic(path,
                             [&](std::ostream &os) {
                                 writeChecksummedBlob(os, magic, version,
                                                      body);
                             },
                             &failure))
            return;
        if (failure.errnoValue == ENOSPC)
            throw ResourceError("disk space",
                                "cannot commit '" + path + "'",
                                failure.errnoValue);
        throw IoError(path, failure.sysCall.empty() ? "write"
                                                    : failure.sysCall,
                      failure.errnoValue, failure.detail);
    });
}

/** Serialized fixed-width shard body header. */
struct ShardHeader
{
    uint64_t shardIndex;
    uint64_t rowCount;
    uint64_t features;
    uint64_t outputs;
    uint64_t configHash;
};

/** Parse a little-endian POD out of @p bytes at @p offset. */
template <typename T>
T
peek(std::span<const char> bytes, size_t offset)
{
    T v{};
    std::memcpy(&v, bytes.data() + offset, sizeof(T));
    return v;
}

} // namespace

uint64_t
fnv1a64(const void *data, size_t n, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

uint64_t
fnv1a64(const std::string &s)
{
    return fnv1a64(s.data(), s.size());
}

namespace {

/**
 * The envelope checksum: eight FNV-1a lanes, lane j taking the 64-bit
 * words j, j + 8, j + 16, ... of the body's whole 64-byte blocks, then
 * the lane states, the tail bytes and the body length folded together
 * with byte FNV-1a. The lanes are independent multiply chains, so the
 * pass runs near memory speed: ~16 us for a 296 KB shard body, where
 * byte-serial FNV-1a takes ~490 us and a memcpy ~9 us. Each lane step
 * is a bijection of the lane state, so a corrupted word always changes
 * its lane's final state.
 */
uint64_t
bodyChecksum(const char *data, size_t n)
{
    constexpr size_t kLanes = 8;
    constexpr size_t kBlockBytes = kLanes * sizeof(uint64_t);
    uint64_t lane[kLanes];
    for (size_t j = 0; j < kLanes; ++j)
        lane[j] = kFnvOffset + j;
    const size_t whole = n - n % kBlockBytes;
    for (size_t at = 0; at < whole; at += kBlockBytes)
        for (size_t j = 0; j < kLanes; ++j) {
            uint64_t w = 0;
            std::memcpy(&w, data + at + j * sizeof(uint64_t), sizeof(w));
            lane[j] = (lane[j] ^ w) * kFnvPrime;
        }
    uint64_t h = fnv1a64(lane, sizeof(lane));
    h = fnv1a64(data + whole, n - whole, h);
    const uint64_t length = n;
    return fnv1a64(&length, sizeof(length), h);
}

} // namespace

void
writeChecksummedBlob(std::ostream &os, uint32_t magic, uint32_t version,
                     const std::string &body)
{
    put(os, magic);
    put(os, version);
    put(os, uint64_t(body.size()));
    os.write(body.data(), std::streamsize(body.size()));
    put(os, bodyChecksum(body.data(), body.size()));
    put(os, uint32_t(~magic));
}

std::optional<std::span<const char>>
readChecksummedBlobView(std::span<const char> file, uint32_t magic,
                        uint32_t version, BlobReadError *err)
{
    auto fail = [&](BlobReadError::Kind kind, const std::string &why)
        -> std::optional<std::span<const char>> {
        if (err) {
            err->kind = kind;
            err->message = why;
        }
        return std::nullopt;
    };
    using Kind = BlobReadError::Kind;
    if (file.size() < sizeof(uint32_t)
        || peek<uint32_t>(file, 0) != magic)
        return fail(Kind::BadHeader, "bad magic (not a recognized file)");
    if (file.size() < 2 * sizeof(uint32_t))
        return fail(Kind::ShortRead, "truncated file (no format version)");
    if (uint32_t v = peek<uint32_t>(file, sizeof(uint32_t)); v != version)
        return fail(Kind::BadHeader,
                    strCat("unsupported format version ", v, " (expected ",
                           version, ")"));
    if (file.size() < kBlobHeadBytes)
        return fail(Kind::ShortRead, "truncated file (no body size)");
    const uint64_t size = peek<uint64_t>(file, 2 * sizeof(uint32_t));
    const uint64_t remaining = file.size() - kBlobHeadBytes;
    if (remaining < kBlobFootBytes)
        return fail(Kind::ShortRead,
                    "truncated file (shorter than its footer)");
    if (size > remaining - kBlobFootBytes)
        return fail(Kind::ShortRead,
                    strCat("truncated file (body declares ", size,
                           " bytes, only ", remaining - kBlobFootBytes,
                           " present)"));
    const std::span<const char> body =
        file.subspan(kBlobHeadBytes, size_t(size));
    const size_t footAt = kBlobHeadBytes + size_t(size);
    if (file.size() != footAt + kBlobFootBytes)
        return fail(Kind::BadHeader, "trailing bytes after footer");
    if (peek<uint32_t>(file, footAt + sizeof(uint64_t)) != uint32_t(~magic))
        return fail(Kind::BadHeader, "bad footer magic");
    const uint64_t expected = peek<uint64_t>(file, footAt);
    const uint64_t actual = bodyChecksum(body.data(), body.size());
    if (expected != actual) {
        if (err) {
            err->expectedChecksum = expected;
            err->actualChecksum = actual;
        }
        return fail(Kind::Checksum,
                    "checksum mismatch (corrupt or torn write)");
    }
    return body;
}

namespace {

void
setFailure(CommitFailure *failure, const std::string &sysCall,
           int errnoValue, const std::string &detail)
{
    if (failure == nullptr)
        return;
    failure->sysCall = sysCall;
    failure->errnoValue = errnoValue;
    failure->detail = detail;
}

/**
 * Flip one committed byte of @p path, inside the blob body (past the
 * envelope header, before the footer), so the next verified read sees
 * a checksum mismatch — the deterministic stand-in for bit rot.
 */
void
flipOneCommittedByte(const std::string &path)
{
    std::error_code ec;
    const uint64_t size = std::filesystem::file_size(path, ec);
    if (ec)
        return;
    if (size <= kBlobHeadBytes + kBlobFootBytes)
        return;
    const uint64_t offset =
        kBlobHeadBytes + (size - kBlobHeadBytes - kBlobFootBytes) / 2;
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    if (!fs)
        return;
    fs.seekg(std::streamoff(offset));
    char byte = 0;
    fs.read(&byte, 1);
    byte = char(byte ^ 0x40);
    fs.seekp(std::streamoff(offset));
    fs.write(&byte, 1);
}

} // namespace

bool
commitFileAtomic(const std::string &path,
                 const std::function<void(std::ostream &)> &writeBody,
                 CommitFailure *failure)
{
    setFailure(failure, "", 0, "");
    // Unique tmp name: concurrent writers must never share one.
    static std::atomic<uint64_t> counter{0};
    std::string tmp = strCat(path, ".tmp.", uint64_t(::getpid()), ".",
                             counter.fetch_add(1));
    std::error_code ec;
    uint64_t written = 0;
    {
        errno = 0;
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            setFailure(failure, "open", errno != 0 ? errno : EIO,
                       "cannot create tmp file '" + tmp + "'");
            return false;
        }
        errno = 0;
        writeBody(os);
        os.flush();
        if (const auto pos = os.tellp(); os && pos >= 0)
            written = uint64_t(pos);
        if (!os) {
            setFailure(failure, "write", errno != 0 ? errno : EIO,
                       "short write to tmp file '" + tmp + "'");
            std::filesystem::remove(tmp, ec);
            return false;
        }
    }
    if (FaultInjector::armed()) {
        if (int injected = FaultInjector::instance().onWrite(path, written);
            injected != 0) {
            setFailure(failure, "write", injected, "injected fault");
            std::filesystem::remove(tmp, ec);
            return false;
        }
    }
    errno = 0;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        setFailure(failure, "rename", ec.value(),
                   "cannot rename tmp file '" + tmp + "' into place");
        std::filesystem::remove(tmp, ec);
        return false;
    }
    if (FaultInjector::armed()
        && FaultInjector::instance().shouldFlipCommittedByte(path))
        flipOneCommittedByte(path);
    return true;
}

std::string
shardPath(const std::string &dir, size_t idx)
{
    char name[32];
    std::snprintf(name, sizeof(name), "shard-%06zu.mms", idx);
    return dir + "/" + name;
}

std::string
manifestPath(const std::string &dir)
{
    return dir + "/manifest.mms";
}

bool
readShardFile(const std::string &dir, size_t idx, const ShardLayout &expect,
              Matrix &x, Matrix &y, ShardReadError *err)
{
    using Cls = ShardReadError::Cls;
    auto fail = [&](Cls cls, const std::string &why, int errnoValue = 0) {
        if (err) {
            err->cls = cls;
            err->message = why;
            err->errnoValue = errnoValue;
        }
        return false;
    };
    if (err)
        *err = ShardReadError{};
    // Warm-load: the checksum pass runs over the mapped bytes and the
    // payload memcpys straight into the matrices — the stream path's
    // buffer and body-string copies are gone.
    int openErrno = 0;
    auto mf = MappedFile::open(shardPath(dir, idx), &openErrno);
    if (!mf) {
        if (openErrno == ENOENT)
            return fail(Cls::Missing, "missing file", openErrno);
        return fail(Cls::IoFault,
                    strCat("cannot open: ", errnoText(openErrno)),
                    openErrno);
    }
    BlobReadError blobErr;
    auto body = readChecksummedBlobView(mf->bytes(), kShardMagic,
                                        kStoreVersion, &blobErr);
    if (!body) {
        Cls cls = Cls::Header;
        if (blobErr.kind == BlobReadError::Kind::ShortRead)
            cls = Cls::ShortRead;
        else if (blobErr.kind == BlobReadError::Kind::Checksum)
            cls = Cls::Corrupt;
        if (err) {
            err->expectedChecksum = blobErr.expectedChecksum;
            err->actualChecksum = blobErr.actualChecksum;
        }
        return fail(cls, blobErr.message);
    }

    if (body->size() < sizeof(ShardHeader))
        return fail(Cls::ShortRead, "truncated shard header");
    ShardHeader h{};
    std::memcpy(&h, body->data(), sizeof(h));
    if (h.shardIndex != idx)
        return fail(Cls::Mismatch,
                    strCat("shard index mismatch (header says ",
                           h.shardIndex, ")"));
    if (h.features != expect.features || h.outputs != expect.outputs)
        return fail(Cls::Mismatch, "shard arity mismatch");
    if (h.configHash != expect.configHash)
        return fail(Cls::Mismatch,
                    "shard belongs to a different dataset config");
    if (h.rowCount != expect.shardRows(idx))
        return fail(Cls::Mismatch, "shard row count mismatch");

    const size_t rows = size_t(h.rowCount);
    const size_t xFloats = rows * size_t(h.features);
    const size_t yFloats = rows * size_t(h.outputs);
    const size_t expectBytes =
        sizeof(ShardHeader) + (xFloats + yFloats) * sizeof(float);
    if (body->size() != expectBytes)
        return fail(Cls::Mismatch, "shard payload size mismatch");

    x.ensureShape(rows, size_t(h.features));
    y.ensureShape(rows, size_t(h.outputs));
    std::memcpy(x.data(), body->data() + sizeof(ShardHeader),
                xFloats * sizeof(float));
    std::memcpy(y.data(),
                body->data() + sizeof(ShardHeader)
                    + xFloats * sizeof(float),
                yFloats * sizeof(float));
    return true;
}

void
throwShardReadError(const std::string &dir, size_t idx,
                    const ShardReadError &err)
{
    const std::string path = shardPath(dir, idx);
    switch (err.cls) {
      case ShardReadError::Cls::Missing:
      case ShardReadError::Cls::IoFault:
        throw IoError(path, "open",
                      err.errnoValue != 0 ? err.errnoValue : EIO,
                      err.message);
      case ShardReadError::Cls::ShortRead:
        throw CorruptionError(path, CorruptionError::Kind::ShortRead,
                              err.message);
      case ShardReadError::Cls::Corrupt:
        throw CorruptionError(path, CorruptionError::Kind::ChecksumMismatch,
                              err.message, err.expectedChecksum,
                              err.actualChecksum);
      case ShardReadError::Cls::Header:
        throw CorruptionError(path, CorruptionError::Kind::BadHeader,
                              err.message);
      default:
        throw FatalError(strCat("cannot read ", path, ": ", err.message));
    }
}

std::string
quarantineShard(const std::string &dir, size_t idx)
{
    const std::string path = shardPath(dir, idx);
    const std::string target = path + ".quarantine";
    std::error_code ec;
    std::filesystem::rename(path, target, ec);
    return ec ? std::string() : target;
}

std::optional<uint64_t>
peekShardConfigHash(const std::string &dir, size_t idx)
{
    auto mf = MappedFile::open(shardPath(dir, idx));
    if (!mf || mf->bytes().size() < kBlobHeadBytes + sizeof(ShardHeader))
        return std::nullopt;
    const std::span<const char> file = mf->bytes();
    if (peek<uint32_t>(file, 0) != kShardMagic
        || peek<uint32_t>(file, sizeof(uint32_t)) != kStoreVersion)
        return std::nullopt;
    const auto h = peek<ShardHeader>(file, kBlobHeadBytes);
    if (h.shardIndex != idx)
        return std::nullopt;
    return h.configHash;
}

// ---------------------------------------------------------------------------
// ShardStoreWriter
// ---------------------------------------------------------------------------

ShardStoreWriter::ShardStoreWriter(std::string dir, ShardLayout layout)
    : root(std::move(dir)), shape(layout)
{
    MM_ASSERT(!root.empty(), "shard store needs a directory");
    MM_ASSERT(shape.shardSize > 0, "shard size must be positive");
    MM_ASSERT(shape.rows > 0, "shard store needs rows");
    MM_ASSERT(shape.features > 0 && shape.outputs > 0,
              "shard store needs arity");
    MM_ASSERT(shape.shardCount
                  == (shape.rows + shape.shardSize - 1) / shape.shardSize,
              "shard count inconsistent with rows/shardSize");
    MM_ASSERT(shape.trainRows + shape.testRows == shape.rows,
              "split inconsistent with rows");
    std::error_code ec;
    std::filesystem::create_directories(root, ec);
    if (ec)
        throw IoError(root, "mkdir", ec.value(),
                      "cannot create stream directory");
}

bool
ShardStoreWriter::shardValid(size_t idx) const
{
    Matrix x, y;
    return readShardFile(root, idx, shape, x, y, nullptr);
}

void
ShardStoreWriter::writeShard(size_t idx, const Matrix &x, const Matrix &y)
{
    MM_ASSERT(idx < shape.shardCount, "shard index out of range");
    const size_t rows = size_t(shape.shardRows(idx));
    MM_ASSERT(x.rows() == rows && y.rows() == rows,
              "shard row count mismatch");
    MM_ASSERT(x.cols() == shape.features && y.cols() == shape.outputs,
              "shard arity mismatch");

    std::ostringstream body(std::ios::binary);
    put(body, uint64_t(idx));
    put(body, uint64_t(rows));
    put(body, shape.features);
    put(body, shape.outputs);
    put(body, shape.configHash);
    body.write(reinterpret_cast<const char *>(x.data()),
               std::streamsize(rows * x.cols() * sizeof(float)));
    body.write(reinterpret_cast<const char *>(y.data()),
               std::streamsize(rows * y.cols() * sizeof(float)));
    commitBlobFile(shardPath(root, idx), kShardMagic, kStoreVersion,
                   body.str());
}

void
ShardStoreWriter::commit(const Normalizer &inputNorm,
                         const Normalizer &outputNorm)
{
    MM_ASSERT(inputNorm.dim() == shape.features
                  && outputNorm.dim() == shape.outputs,
              "manifest normalizer arity mismatch");
    std::ostringstream body(std::ios::binary);
    put(body, shape.rows);
    put(body, shape.features);
    put(body, shape.outputs);
    put(body, shape.shardSize);
    put(body, shape.shardCount);
    put(body, shape.trainRows);
    put(body, shape.testRows);
    put(body, shape.featureLogPrefix);
    put(body, shape.configHash);
    inputNorm.save(body);
    outputNorm.save(body);
    commitBlobFile(manifestPath(root), kManifestMagic, kStoreVersion,
                   body.str());
}

// ---------------------------------------------------------------------------
// ShardedDatasetReader
// ---------------------------------------------------------------------------

size_t
defaultShardCacheShards()
{
    return envSize("MM_SHARD_CACHE", 8);
}

std::optional<ShardManifest>
ShardedDatasetReader::tryReadManifest(const std::string &dir)
{
    // A flaky medium is retried like a shard read; only a missing file
    // means "no committed store".
    const std::string path = manifestPath(dir);
    std::optional<MappedFile> mf;
    retryTransient(RetryPolicy::fromEnv(), [&] {
        int err = 0;
        mf = MappedFile::open(path, &err);
        if (!mf && err != ENOENT)
            throw IoError(path, "open", err, "cannot read manifest");
    });
    if (!mf)
        return std::nullopt;
    auto body = readChecksummedBlobView(mf->bytes(), kManifestMagic,
                                        kStoreVersion, nullptr);
    if (!body)
        return std::nullopt;
    MemoryIStream is(*body);
    ShardManifest m;
    ShardLayout &l = m.layout;
    if (!get(is, l.rows) || !get(is, l.features) || !get(is, l.outputs)
        || !get(is, l.shardSize) || !get(is, l.shardCount)
        || !get(is, l.trainRows) || !get(is, l.testRows)
        || !get(is, l.featureLogPrefix) || !get(is, l.configHash))
        return std::nullopt;
    if (l.shardSize == 0 || l.rows == 0
        || l.shardCount != (l.rows + l.shardSize - 1) / l.shardSize
        || l.trainRows + l.testRows != l.rows)
        return std::nullopt;
    m.inputNorm = Normalizer::load(is);
    m.outputNorm = Normalizer::load(is);
    if (m.inputNorm.dim() != l.features || m.outputNorm.dim() != l.outputs)
        return std::nullopt;
    return m;
}

ShardedDatasetReader::ShardedDatasetReader(std::string dir,
                                           size_t cacheShards)
    : root(std::move(dir))
{
    auto m = tryReadManifest(root);
    if (!m.has_value()) {
        const std::string path = manifestPath(root);
        std::error_code ec;
        if (!std::filesystem::exists(path, ec))
            throw IoError(path, "open", ENOENT,
                          "no shard-store manifest (partial or foreign "
                          "dataset run)");
        throw CorruptionError(
            path, CorruptionError::Kind::BadHeader,
            "invalid shard-store manifest (partial or corrupt dataset run)");
    }
    manifest = std::move(*m);
    for (size_t s = 0; s < manifest.layout.shardCount; ++s) {
        if (!std::filesystem::exists(shardPath(root, s)))
            throw IoError(shardPath(root, s), "open", ENOENT,
                          "missing shard file");
    }
    initCache(cacheShards == 0 ? defaultShardCacheShards() : cacheShards);
}

ShardedDatasetReader::ShardedDatasetReader(ShardManifest m,
                                           std::vector<ShardPtr> shards)
    : manifest(std::move(m))
{
    MM_ASSERT(shards.size() == manifest.layout.shardCount,
              "resident reader needs every shard");
    initCache(shards.size());
    // Shard s lands in way s % ways, and no way receives more shards
    // than its slots, so every shard stays cached for good.
    for (size_t s = 0; s < shards.size(); ++s) {
        MM_ASSERT(shards[s] != nullptr
                      && shards[s]->x.rows() == manifest.layout.shardRows(s),
                  "resident shard shape mismatch");
        CacheWay &way = ways[s % ways.size()];
        MutexLock lock(way.m);
        CacheWay::Slot &slot = way.slots[s / ways.size()];
        slot.idx = s;
        slot.stamp = ++way.tick;
        slot.shard = std::move(shards[s]);
    }
}

void
ShardedDatasetReader::initCache(size_t capacity)
{
    capacity = std::max<size_t>(capacity, 1);
    // Split the capacity into independently locked ways so concurrent
    // gather lanes touching different shards never contend on one
    // mutex — but keep at least two slots per way: one-slot ways are
    // direct-mapped, and shards colliding mod wayCount would evict
    // each other forever where the old fully associative LRU kept
    // both. Capacity rounds up to ways * slotsPerWay.
    const size_t wayCount =
        std::min<size_t>(8, std::max<size_t>(1, capacity / 2));
    const size_t slotsPerWay = (capacity + wayCount - 1) / wayCount;
    ways = std::vector<CacheWay>(wayCount);
    for (CacheWay &w : ways) {
        MutexLock lock(w.m);
        w.slots.resize(slotsPerWay);
    }
    cacheCapacity = wayCount * slotsPerWay;
}

void
ShardedDatasetReader::readShard(size_t idx, Matrix &x, Matrix &y) const
{
    MM_ASSERT(!root.empty(), "a resident reader has no shard files");
    MM_ASSERT(idx < manifest.layout.shardCount, "shard index out of range");
    auto attemptRead = [&] {
        ShardReadError err;
        if (!readShardFile(root, idx, manifest.layout, x, y, &err))
            throwShardReadError(root, idx, err);
    };
    try {
        retryTransient(retryPolicy, attemptRead);
        return;
    } catch (const CorruptionError &e) {
        // ShortRead/ChecksumMismatch prove the bytes are bad: move them
        // aside so even a crash right here resumes cleanly. A BadHeader
        // may be a foreign file — never destroy it.
        if (e.kind() == CorruptionError::Kind::BadHeader)
            throw;
        quarantineShard(root, idx);
        quarantined.fetch_add(1);
        if (!healShard)
            throw;
    }
    // Heal: the callback re-labels just this shard through the dataset
    // crash-resume machinery, then the verified read runs again. A
    // still-bad result after healing propagates — no retry loop against
    // persistent corruption.
    healShard(idx);
    retryTransient(retryPolicy, attemptRead);
}

void
ShardedDatasetReader::forEachRow(
    size_t rowBegin, size_t rowEnd,
    const std::function<void(size_t, std::span<const float>,
                             std::span<const float>)> &fn) const
{
    const ShardLayout &l = manifest.layout;
    MM_ASSERT(rowBegin <= rowEnd && rowEnd <= l.rows,
              "row range out of bounds");
    for (size_t row = rowBegin; row < rowEnd;) {
        const size_t shard = row / l.shardSize;
        const ShardPtr pinned = pinShard(shard);
        const size_t shardBegin = shard * size_t(l.shardSize);
        const size_t last = std::min(rowEnd, shardBegin + pinned->x.rows());
        for (; row < last; ++row)
            fn(row, pinned->x.row(row - shardBegin),
               pinned->y.row(row - shardBegin));
    }
}

void
ShardedDatasetReader::materialize(size_t rowBegin, size_t rowCount,
                                  Matrix &x, Matrix &y) const
{
    x.ensureShape(rowCount, size_t(manifest.layout.features));
    y.ensureShape(rowCount, size_t(manifest.layout.outputs));
    forEachRow(rowBegin, rowBegin + rowCount,
               [&](size_t row, std::span<const float> xr,
                   std::span<const float> yr) {
                   std::copy(xr.begin(), xr.end(),
                             x.row(row - rowBegin).begin());
                   std::copy(yr.begin(), yr.end(),
                             y.row(row - rowBegin).begin());
               });
}

ShardedDatasetReader::ShardPtr
ShardedDatasetReader::pinShard(size_t idx) const
{
    CacheWay &way = ways[idx % ways.size()];
    MutexLock lock(way.m);
    CacheWay::Slot *victim = &way.slots[0];
    for (CacheWay::Slot &slot : way.slots) {
        if (slot.idx == idx) {
            slot.stamp = ++way.tick;
            return slot.shard;
        }
        if (slot.stamp < victim->stamp)
            victim = &slot;
    }
    // Miss: decode under this way's lock (other ways stay available).
    // The evicted shard's pinners keep it alive via their shared_ptr.
    auto decoded = std::make_shared<DecodedShard>();
    readShard(idx, decoded->x, decoded->y);
    victim->idx = idx;
    victim->stamp = ++way.tick;
    victim->shard = std::move(decoded);
    return victim->shard;
}

// ---------------------------------------------------------------------------
// ShardBatchSource
// ---------------------------------------------------------------------------

ShardBatchSource::ShardBatchSource(ShardedDatasetReader &reader,
                                   size_t rowBegin, size_t rowCount)
    : src(reader), base(rowBegin), count(rowCount)
{
    MM_ASSERT(rowBegin + rowCount <= reader.layout().rows,
              "batch source range out of bounds");
}

size_t
ShardBatchSource::xCols() const
{
    return size_t(src.layout().features);
}

size_t
ShardBatchSource::yCols() const
{
    return size_t(src.layout().outputs);
}

void
ShardBatchSource::gather(const std::vector<size_t> &idx, size_t begin,
                         size_t n, Matrix &bx, Matrix &by,
                         ParallelContext *par)
{
    bx.ensureShape(n, xCols());
    by.ensureShape(n, yCols());
    const Normalizer &xn = src.inputNorm();
    const Normalizer &yn = src.outputNorm();
    const size_t shardSize = size_t(src.layout().shardSize);

    // Each range pins its current shard once and rides it across
    // consecutive rows (epoch orders are window-local, so runs are
    // long); every output row's value is independent of which lane
    // computes it, so batches are bitwise identical at any lane count.
    auto gatherRange = [&](size_t lo, size_t hi) {
        ShardedDatasetReader::ShardPtr pinned;
        size_t pinnedIdx = size_t(-1);
        for (size_t r = lo; r < hi; ++r) {
            const size_t row = base + idx[begin + r];
            MM_ASSERT(row < base + count, "batch index out of range");
            const size_t shard = row / shardSize;
            if (shard != pinnedIdx) {
                pinned = src.pinShard(shard);
                pinnedIdx = shard;
            }
            const size_t local = row % shardSize;
            xn.normalizeRow(pinned->x.row(local), bx.row(r));
            yn.normalizeRow(pinned->y.row(local), by.row(r));
        }
    };

    if (par != nullptr && par->lanes() > 1
        && n >= 2 * kGatherChunkRows) {
        const size_t chunks =
            (n + kGatherChunkRows - 1) / kGatherChunkRows;
        par->parallelFor(chunks, [&](size_t c) {
            gatherRange(c * kGatherChunkRows,
                        std::min(n, (c + 1) * kGatherChunkRows));
        });
    } else {
        gatherRange(0, n);
    }
}

} // namespace mm
