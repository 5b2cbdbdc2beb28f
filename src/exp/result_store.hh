/**
 * @file
 * Content-addressed, append-only result store — the one result
 * backend behind exp::submit.
 *
 * The store is one file in a directory (./acp_store by default):
 *
 *   <dir>/results-v2.txt   <64-hex digest> <16-hex FNV-1a> <payload>
 *
 * One line per put: the payload is a result_codec line, the checksum
 * its 64-bit FNV-1a. Opening reads the file once and keeps the payload
 * text of every line whose checksum holds; the last line for a digest
 * wins. A lookup decodes only its own payload. A missing file reads as
 * an empty store, and nothing is created until the first put.
 *
 * Results are keyed on pointDigest() alone: SHA-256 over the complete
 * serialized SimConfig plus workload identity and window, so every
 * configuration knob participates in the key and a store hit is
 * exactly the result the point would compute. The key does not name
 * the simulator's version: a change that moves simulated numbers on
 * purpose renames the file (results-v3.txt). An older file, like an
 * older build's index.txt/data.txt pair, is never read.
 *
 * Several processes may share one directory (two bench binaries run
 * side by side, say). A put is one write(2) of its whole line to an
 * O_APPEND descriptor; on a local filesystem the kernel lands each
 * such write whole at the end of the file, so no lock is needed. A
 * line torn by a full disk or a killed writer fails its checksum,
 * together with the line appended right after it. Each instance
 * serves what it read at open plus its own puts; entries another
 * process adds later are seen on the next open.
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
    /** Lifetime telemetry of one store instance (sweep JSON
     *  "telemetry" block). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        /** Puts whose line was written whole. */
        std::uint64_t stores = 0;
    };

    /** Read the store in directory @p dir; creates nothing. */
    explicit ResultStore(std::string dir);
    ~ResultStore();
    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /** Look up a digest; fills @p out (fromCache=true) on a hit. */
    bool lookup(const std::string &digest, Result &out);

    /** Append an entry, creating the directory and file on the first
     *  put. A later put of the same digest supersedes it. */
    void put(const std::string &digest, const Result &result);

    const std::string &dir() const { return dir_; }

    /** Hit/miss/store counters since construction. */
    Stats stats() const;

  private:
    std::string path() const { return dir_ + "/results-v2.txt"; }

    std::string dir_;
    int fd_ = -1; ///< append descriptor, opened by the first put
    mutable std::mutex mutex_;
    Stats stats_;
    std::unordered_map<std::string, std::string> payloads_;
};

} // namespace acp::exp

#endif // ACP_EXP_RESULT_STORE_HH
