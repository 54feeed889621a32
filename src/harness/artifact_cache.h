/**
 * @file
 * Memoizing cache for expensive intermediate sweep products.
 *
 * A design-space sweep runs the same program under many machine
 * configurations; generating the program and linking + compressing its
 * image are pure functions of a subset of the job, so the cache shares
 * them across jobs:
 *
 *  - Program: keyed by the full WorkloadSpec content (every knob plus
 *    the seed) — a 10-point I-cache sweep generates each program once.
 *  - BuiltImage (linked image + compressed image/dictionaries): keyed by
 *    the program key plus the fields of SystemConfig the link/compress
 *    step actually reads (scheme, regions, order, and — for the
 *    line-granular Huffman scheme only — the I-cache line size). A
 *    dictionary sweep over cache sizes compresses each program once.
 *
 * Keys are canonical serializations of the inputs (content keys, not
 * addresses), so logically identical values hit regardless of which job
 * asks first. All artifacts are immutable after construction and handed
 * out as shared_ptr<const T>; concurrent lookups of the same key block
 * on a single builder instead of duplicating work.
 */

#ifndef RTDC_HARNESS_ARTIFACT_CACHE_H
#define RTDC_HARNESS_ARTIFACT_CACHE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "core/system.h"
#include "workload/generator.h"

namespace rtd::harness {

/**
 * FNV-1a 64-bit content hash (stable across runs and platforms). Pass
 * the hash of a prefix as @p hash to continue it: hashing a string
 * piece by piece gives the hash of the whole.
 */
uint64_t stableHash64(std::string_view bytes,
                      uint64_t hash = 0xcbf29ce484222325ull);

/**
 * Byte-level backing store an ArtifactCache can spill artifacts to and
 * revive them from — the seam between the in-memory memoizer and the
 * disk-backed content-addressed store (serve::DiskArtifactCache).
 * Implementations must be thread-safe and must treat any I/O or
 * integrity failure as a miss: load() returning false simply sends the
 * caller down the build path.
 */
class BlobStore
{
  public:
    virtual ~BlobStore() = default;

    /** Fetch the blob for @p key; false when absent or invalid. */
    virtual bool load(const std::string &key, std::string &bytes) = 0;

    /** Persist @p bytes under @p key (best effort; may evict others). */
    virtual void store(const std::string &key,
                       std::string_view bytes) = 0;
};

/** Thread-safe memoizing store for sweep artifacts. */
class ArtifactCache
{
  public:
    ArtifactCache() = default;
    ArtifactCache(const ArtifactCache &) = delete;
    ArtifactCache &operator=(const ArtifactCache &) = delete;

    /**
     * Attach a persistent backing store: artifacts missing from memory
     * are revived from @p store before being rebuilt, and every fresh
     * build is written back. Call before the first lookup (the daemon
     * attaches its disk cache at startup); pass nullptr to detach.
     * The store must outlive the cache.
     */
    void setStore(BlobStore *store) { store_ = store; }

    /** The generated program for @p spec (built at most once). */
    std::shared_ptr<const prog::Program>
    program(const workload::WorkloadSpec &spec);

    /**
     * The linked + compressed image for (@p spec, @p config), sharing
     * the underlying Program. Safe to hand to core::System on any
     * thread; the System must be configured with a @p config whose
     * image-relevant fields match (the sweep runner guarantees this by
     * construction).
     */
    std::shared_ptr<const core::BuiltImage>
    builtImage(const workload::WorkloadSpec &spec,
               const core::SystemConfig &config);

    /// @name Instrumentation
    /// @{
    uint64_t hits() const { return hits_.load(); }
    uint64_t builds() const { return builds_.load(); }
    /** Artifacts revived from the backing store instead of rebuilt. */
    uint64_t storeHits() const { return storeHits_.load(); }
    /// @}

    /// @name Canonical content keys (exposed for tests/diagnostics)
    /// @{
    static std::string workloadKey(const workload::WorkloadSpec &spec);
    static std::string imageKey(const workload::WorkloadSpec &spec,
                                const core::SystemConfig &config);
    /// @}

  private:
    /**
     * Single-builder memoization: the first caller of a key builds while
     * later callers of the same key wait on its future. With a backing
     * store attached, the builder first tries @p revive (decode a stored
     * blob) and, after a fresh build, persists via @p spill.
     */
    std::shared_ptr<const void> getOrBuild(
        const std::string &key,
        const std::function<std::shared_ptr<const void>()> &build,
        const std::function<std::shared_ptr<const void>(
            const std::string &)> &revive,
        const std::function<std::string(const std::shared_ptr<const void> &)>
            &spill);

    std::mutex mutex_;
    std::map<std::string, std::shared_future<std::shared_ptr<const void>>>
        entries_;
    BlobStore *store_ = nullptr;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> builds_{0};
    std::atomic<uint64_t> storeHits_{0};
};

} // namespace rtd::harness

#endif // RTDC_HARNESS_ARTIFACT_CACHE_H
