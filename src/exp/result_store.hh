/**
 * @file
 * Content-addressed, persistently-LRU-bounded result store — the one
 * result backend behind exp::submit.
 *
 * Layout (a directory, ./acp_store by default):
 *
 *   <dir>/index.txt   acp-store-v1
 *                     # {"schema": "acp-manifest-v1", ...}
 *                     put <64-hex-digest> <offset> <len>
 *                     touch <digest>
 *                     evict <digest>
 *   <dir>/data.txt    one result_codec payload line per put, at the
 *                     recorded byte offset/length
 *
 * The index is an append-only journal: replaying it reconstructs both
 * the live entry set and the LRU order (put/touch move an entry to
 * most-recent; evict removes it). This is what makes the
 * ACP_CACHE_MAX_ENTRIES cap *persistent* — the old ResultCache
 * evicted only its in-memory map while its file kept every line, so
 * a capped cache silently grew without bound on disk and re-served
 * "evicted" entries after reopen. Here an eviction is journaled and
 * survives reopen; the journal is compacted (both files rewritten
 * from the live set) when dead records outnumber live ones.
 *
 * Results are keyed on pointDigest() alone: SHA-256 over the complete
 * serialized SimConfig plus workload identity and window, so every
 * configuration knob participates in the key and a store hit is
 * exactly the result the point would compute.
 *
 * Several processes may share one directory (two bench binaries run
 * side by side, say). Every file access holds flock(2) on index.txt:
 * shared while the journal is replayed at open, exclusive while a
 * put/touch/evict record is appended and while the store is
 * initialised or compacted. The exclusive lock is what makes a put's
 * recorded data.txt offset the offset its payload really lands at.
 * Compaction replays the journal again under its lock, so it keeps
 * entries other processes appended since this one opened. Each
 * instance serves what it has replayed or put itself; entries another
 * process adds later are seen on the next open.
 */

#ifndef ACP_EXP_RESULT_STORE_HH
#define ACP_EXP_RESULT_STORE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "exp/result.hh"

namespace acp::exp
{

/** The persistent store. All methods are thread-safe. */
class ResultStore
{
  public:
    static constexpr const char *kIndexHeader = "acp-store-v1";

    /** Lifetime telemetry of one store instance (sweep JSON
     *  "telemetry" block). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t stores = 0;
        std::uint64_t evictions = 0;
    };

    /**
     * Open (creating if needed) the store directory @p dir and replay
     * its index. @p max_entries bounds the live entry count with LRU
     * eviction; 0 reads ACP_CACHE_MAX_ENTRIES (0/unset = unlimited).
     */
    explicit ResultStore(std::string dir, std::size_t max_entries = 0);

    /** Look up a digest; fills @p out (fromCache=true) on a hit and
     *  journals the recency touch. */
    bool lookup(const std::string &digest, Result &out);

    /** Insert (or refresh) an entry; appends the payload to data.txt,
     *  journals the put, and evicts past the cap. */
    void put(const std::string &digest, const Result &result);

    /** Live (resident and servable) entry count. */
    std::size_t size() const;

    const std::string &dir() const { return dir_; }

    /** Hit/miss/store/evict counters since construction. */
    Stats stats() const;

  private:
    struct Entry
    {
        Result result;
        /** Position in lru_ (front = most recent). */
        std::list<std::string>::iterator lruIt;
    };

    std::string indexPath() const { return dir_ + "/index.txt"; }
    std::string dataPath() const { return dir_ + "/data.txt"; }

    // "Locked" members run under mutex_ (in-process). Those that take
    // an @p index_fd also need the exclusive cross-process lock on
    // index.txt, held through that descriptor; they append to it.

    /** Replay the journal into the (reset) live set; false when the
     *  index is missing, empty or not acp-store-v1. */
    bool loadIndexLocked();
    bool compactionDueLocked() const
    {
        return deadRecords_ > entries_.size() + 16;
    }
    void compactLocked();
    bool appendIndexLocked(int index_fd, const std::string &line);
    /** Append one payload line to data.txt; false on I/O failure. */
    bool appendDataLocked(const std::string &payload,
                          std::uint64_t &offset);
    void insertLocked(int index_fd, const std::string &digest,
                      const Result &result);
    void evictLocked(int index_fd);

    std::string dir_;
    /** Journal records that no longer describe a live entry. */
    std::size_t deadRecords_ = 0;
    /** Live-entry cap (ACP_CACHE_MAX_ENTRIES env; 0 = unlimited). */
    std::size_t maxEntries_ = 0;
    mutable std::mutex mutex_;
    mutable Stats stats_;
    /** Digests, front = most recently used. */
    std::list<std::string> lru_;
    std::unordered_map<std::string, Entry> entries_;
};

} // namespace acp::exp

#endif // ACP_EXP_RESULT_STORE_HH
