/**
 * @file
 * Content-addressed, append-only result store — the one result
 * backend behind exp::submit.
 *
 * Layout (a directory, ./acp_store by default):
 *
 *   <dir>/index.txt   acp-store-v1
 *                     # {"schema": "acp-manifest-v1", ...}
 *                     put <64-hex-digest> <offset> <len>
 *   <dir>/data.txt    one result_codec payload line per put, at the
 *                     recorded byte offset/length
 *
 * Once initialised, both files only grow. Replaying the index keeps
 * the last put of each digest; any other record (the touch/evict
 * lines an older, LRU-capped build journaled) is skipped, so such a
 * store still opens and serves every entry whose payload it can read.
 *
 * Results are keyed on pointDigest() alone: SHA-256 over the complete
 * serialized SimConfig plus workload identity and window, so every
 * configuration knob participates in the key and a store hit is
 * exactly the result the point would compute.
 *
 * Several processes may share one directory (two bench binaries run
 * side by side, say). File access holds flock(2) on index.txt:
 * shared while the journal is replayed at open, exclusive while a put
 * appends and while the store is initialised. The exclusive lock is
 * what makes a put's recorded data.txt offset the offset its payload
 * really lands at. A hit reads memory only. Each instance serves what
 * it has replayed or put itself; entries another process adds later
 * are seen on the next open.
 */

#ifndef ACP_EXP_RESULT_STORE_HH
#define ACP_EXP_RESULT_STORE_HH

#include <cstdint>
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
    };

    /** Open (creating if needed) the store directory @p dir and replay
     *  its index. */
    explicit ResultStore(std::string dir);

    /** Look up a digest; fills @p out (fromCache=true) on a hit. */
    bool lookup(const std::string &digest, Result &out);

    /** Insert (or refresh) an entry: appends the payload to data.txt
     *  and its put record to index.txt. */
    void put(const std::string &digest, const Result &result);

    /** Live (resident and servable) entry count. */
    std::size_t size() const;

    const std::string &dir() const { return dir_; }

    /** Hit/miss/store counters since construction. */
    Stats stats() const;

  private:
    std::string indexPath() const { return dir_ + "/index.txt"; }
    std::string dataPath() const { return dir_ + "/data.txt"; }

    // "Locked" members run under mutex_ (in-process). appendDataLocked
    // also needs the exclusive cross-process lock on index.txt.

    /** Replay the journal into the (reset) live set; false when the
     *  index is missing, empty or not acp-store-v1. */
    bool loadIndexLocked();
    /** Append one payload line to data.txt; false on I/O failure. */
    bool appendDataLocked(const std::string &payload,
                          std::uint64_t &offset);

    std::string dir_;
    mutable std::mutex mutex_;
    mutable Stats stats_;
    std::unordered_map<std::string, Result> entries_;
};

} // namespace acp::exp

#endif // ACP_EXP_RESULT_STORE_HH
