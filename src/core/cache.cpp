#include "core/cache.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include "common/mutex.hpp"
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/mapped_file.hpp"
#include "common/retry.hpp"
#include "core/shard_store.hpp"

namespace mm {

namespace fs = std::filesystem;

namespace {

constexpr const char *kEntrySuffix = ".surrogate";

/**
 * Serializes the LRU bookkeeping (mtime touches vs. the eviction scan)
 * within this process. Without it a load's touch can lose to a
 * concurrent evictOverCap() that already ranked the entry stalest: the
 * just-loaded entry gets evicted. Cross-process interleavings remain
 * best effort (eviction re-stats each victim before removing it).
 */
Mutex &
lruMutex()
{
    static Mutex m;
    return m;
}

/** Hex FNV-1a of the fingerprint string; filenames stay fs-safe. */
std::string
hashKey(const std::string &key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return buf;
}

bool
isEntry(const fs::path &p)
{
    return p.extension() == kEntrySuffix;
}

/** All entries under @p root (error-swallowing: racing deletes are fine). */
std::vector<fs::path>
listEntries(const std::string &root)
{
    std::vector<fs::path> entries;
    std::error_code ec;
    fs::recursive_directory_iterator it(root, ec), end;
    for (; !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec) && isEntry(it->path()))
            entries.push_back(it->path());
    }
    return entries;
}

} // namespace

SurrogateCache::SurrogateCache(std::string dir, int64_t maxEntries)
    : root(std::move(dir)), cap(maxEntries)
{
    if (root.empty())
        root = defaultDir();
    if (cap < 0)
        cap = std::max<int64_t>(0, envInt("MM_CACHE_MAX_ENTRIES", 0));
}

std::string
SurrogateCache::defaultDir()
{
    return envStr("MM_CACHE_DIR", "mm_cache");
}

bool
SurrogateCache::disabled()
{
    return envInt("MM_NO_CACHE", 0) != 0;
}

std::string
SurrogateCache::pathFor(const std::string &fingerprint) const
{
    // Two-hex-char shard prefix: 256-way fan-out keeps per-directory
    // entry counts (and thus scans and rename contention) small.
    std::string h = hashKey(fingerprint);
    return root + "/" + h.substr(0, 2) + "/" + h + kEntrySuffix;
}

std::optional<Surrogate>
SurrogateCache::load(const std::string &fingerprint) const
{
    if (disabled())
        return std::nullopt;
    const std::string path = pathFor(fingerprint);
    // Existence check + LRU touch under the eviction lock: any
    // same-process eviction either completed before (the entry is
    // gone — a plain miss) or scans after and sees the fresh mtime.
    // Touching before the read is safe because a corrupt entry is
    // removed below regardless of its stamp. Only those two cheap
    // stat-level calls sit inside the lock; the mmap read and
    // deserialization happen outside it, so concurrent loads never
    // serialize on I/O.
    {
        MutexLock lock(lruMutex());
        std::error_code tec;
        if (!fs::exists(path, tec) || tec)
            return std::nullopt;
        fs::last_write_time(path, fs::file_time_type::clock::now(), tec);
    }
    auto mf = MappedFile::open(path);
    if (!mf)
        return std::nullopt;
    // Warm load: checksum-verify and deserialize straight out of the
    // mapped entry (atomic renames guarantee the mapping is never a
    // torn write, only ever a complete old or new file).
    std::optional<Surrogate> s = Surrogate::tryLoad(mf->bytes());
    if (!s.has_value()) {
        // Truncated or corrupt entry (torn writer, bit rot): treat as
        // a miss and drop it so it cannot poison later runs.
        std::error_code ec;
        fs::remove(path, ec);
        return std::nullopt;
    }
    return s;
}

void
SurrogateCache::store(const std::string &fingerprint,
                      const Surrogate &surrogate) const
{
    if (disabled() || bypassed())
        return;
    const std::string path = pathFor(fingerprint);
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    if (ec)
        return; // best effort: caching failures never break training

    // Shared tmp-sibling + atomic-rename protocol: readers see old or
    // new — never a torn file. Transient failures retry with backoff;
    // a full disk degrades *this instance* to bypass for the rest of
    // its lifetime (with one warning) — training must never die for
    // the sake of a cache write, and other instances with their own
    // directories keep persisting. Everything else stays a silent
    // no-op.
    try {
        retryTransient(RetryPolicy::fromEnv(), [&] {
            CommitFailure failure;
            if (commitFileAtomic(
                    path, [&](std::ostream &os) { surrogate.save(os); },
                    &failure))
                return;
            if (failure.errnoValue == ENOSPC)
                throw ResourceError("disk space",
                                    "cannot store cache entry '" + path
                                        + "'",
                                    failure.errnoValue);
            throw IoError(path,
                          failure.sysCall.empty() ? "write"
                                                  : failure.sysCall,
                          failure.errnoValue, failure.detail);
        });
    } catch (const ResourceError &e) {
        if (!bypass.exchange(true))
            std::cerr << "warning: surrogate cache degraded to bypass: "
                      << e.what() << std::endl;
        return;
    } catch (const IoError &) {
        return;
    }
    evictOverCap();
}

size_t
SurrogateCache::entryCount() const
{
    return listEntries(root).size();
}

void
SurrogateCache::evictOverCap() const
{
    if (cap <= 0)
        return;
    // Scan and remove under the LRU lock: a load that touched an entry
    // before we got here is ordered before the scan, one that touches
    // after sees the entry already gone (a plain miss). O(n) scan +
    // O(evicted) removals: nth_element partitions out the stalest
    // entries without sorting the whole list.
    MutexLock lock(lruMutex());
    std::vector<fs::path> entries = listEntries(root);
    if (int64_t(entries.size()) <= cap)
        return;
    std::vector<std::pair<fs::file_time_type, fs::path>> byAge;
    byAge.reserve(entries.size());
    std::error_code ec;
    for (const fs::path &p : entries) {
        auto t = fs::last_write_time(p, ec);
        if (!ec)
            byAge.emplace_back(t, p);
    }
    if (int64_t(byAge.size()) <= cap)
        return;
    const size_t evict = byAge.size() - size_t(cap);
    auto byStamp = [](const auto &a, const auto &b) {
        return a.first < b.first;
    };
    std::nth_element(byAge.begin(), byAge.begin() + long(evict) - 1,
                     byAge.end(), byStamp);
    const fs::file_time_type cutoff = byAge[evict - 1].first;
    for (size_t i = 0; i < evict; ++i) {
        // Re-stat before removing: a cross-process toucher may have
        // refreshed the entry since the scan — skip it then.
        auto t = fs::last_write_time(byAge[i].second, ec);
        if (!ec && t <= cutoff)
            fs::remove(byAge[i].second, ec); // racing removals are fine
    }
}

} // namespace mm
