/**
 * @file
 * Lightweight statistics package: named scalar counters, averages and
 * distributions grouped per component, with a registry for dumping.
 * Modeled loosely on gem5's Stats package but kept minimal.
 *
 * Consumers have two views of a StatGroup: the human-readable text
 * dump() and the typed StatVisitor iteration (visit()), which hands
 * each statistic to the caller with its full numeric state — no text
 * scraping, no silently dropped averages.
 */

#ifndef ACP_COMMON_STATS_HH
#define ACP_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace acp
{

/** A named 64-bit event counter. */
class StatCounter
{
  public:
    StatCounter() = default;

    StatCounter &operator++() { ++value_; return *this; }
    StatCounter &operator+=(std::uint64_t n) { value_ += n; return *this; }
    void reset() { value_ = 0; }

    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Accumulates samples and reports count/mean/min/max. */
class StatAverage
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
        if (count_ == 1 || v < min_)
            min_ = v;
        if (count_ == 1 || v > max_)
            max_ = v;
    }

    void
    reset()
    {
        sum_ = 0;
        count_ = 0;
        min_ = 0;
        max_ = 0;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / double(count_) : 0.0; }
    double min() const { return min_; }
    double max() const { return max_; }

  private:
    double sum_ = 0;
    std::uint64_t count_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/**
 * Bucketed (power-of-two) histogram over unsigned integer samples:
 * bucket 0 counts v == 0, bucket k counts 2^(k-1) <= v < 2^k. Tracks
 * count/sum/min/max exactly alongside the bucketed shape, so the mean
 * is not subject to bucketing error. Used for latency and occupancy
 * distributions (auth verify latency, queue depth, decrypt-to-verify
 * gap) where the shape — not just the mean — is the result.
 */
class StatDistribution
{
  public:
    void
    sample(std::uint64_t v)
    {
        ++count_;
        sum_ += v;
        if (count_ == 1 || v < min_)
            min_ = v;
        if (count_ == 1 || v > max_)
            max_ = v;
        unsigned bucket = bucketOf(v);
        if (buckets_.size() <= bucket)
            buckets_.resize(bucket + 1, 0);
        ++buckets_[bucket];
    }

    /** Record @p n identical samples of value @p v in O(1): exactly
     *  equivalent to calling sample(v) @p n times. Lets a component
     *  that batches idle cycles keep distributions bit-identical to a
     *  per-cycle walk. */
    void
    sample(std::uint64_t v, std::uint64_t n)
    {
        if (n == 0)
            return;
        if (count_ == 0 || v < min_)
            min_ = v;
        if (count_ == 0 || v > max_)
            max_ = v;
        count_ += n;
        sum_ += v * n;
        unsigned bucket = bucketOf(v);
        if (buckets_.size() <= bucket)
            buckets_.resize(bucket + 1, 0);
        buckets_[bucket] += n;
    }

    void
    reset()
    {
        count_ = 0;
        sum_ = 0;
        min_ = 0;
        max_ = 0;
        buckets_.clear();
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    double mean() const { return count_ ? double(sum_) / double(count_) : 0.0; }
    std::uint64_t min() const { return min_; }
    std::uint64_t max() const { return max_; }

    /** Bucket occupancies, lowest first (trailing empties trimmed). */
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    /** Bucket index for a sample value. */
    static unsigned
    bucketOf(std::uint64_t v)
    {
        unsigned bits = 0;
        while (v != 0) {
            ++bits;
            v >>= 1;
        }
        return bits; // 0 -> 0, [2^(k-1), 2^k) -> k
    }

    /** Inclusive lower bound of bucket @p i. */
    static std::uint64_t
    bucketLow(unsigned i)
    {
        return i == 0 ? 0 : std::uint64_t(1) << (i - 1);
    }

    /** Exclusive upper bound of bucket @p i. */
    static std::uint64_t
    bucketHigh(unsigned i)
    {
        return i == 0 ? 1 : std::uint64_t(1) << i;
    }

  private:
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
    std::vector<std::uint64_t> buckets_;
};

/**
 * Typed iteration over a StatGroup's statistics. Override the
 * callbacks you care about; names arrive fully qualified as
 * "group.stat". This is the programmatic alternative to parsing
 * dump() text (which drops non-integer statistics on the floor).
 */
class StatVisitor
{
  public:
    virtual ~StatVisitor() = default;

    virtual void
    onCounter(const std::string &name, std::uint64_t value)
    {
        (void)name;
        (void)value;
    }

    virtual void
    onAverage(const std::string &name, const StatAverage &avg)
    {
        (void)name;
        (void)avg;
    }

    virtual void
    onDistribution(const std::string &name, const StatDistribution &dist)
    {
        (void)name;
        (void)dist;
    }
};

/**
 * A group of named statistics owned by one simulated component.
 * Components register their counters once; StatGroup handles naming,
 * reset, text dumps and typed iteration.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Register a counter under @p stat_name; group keeps a pointer. */
    void
    addCounter(const std::string &stat_name, StatCounter *counter)
    {
        counters_.emplace_back(stat_name, counter);
    }

    /** Register an average under @p stat_name. */
    void
    addAverage(const std::string &stat_name, StatAverage *avg)
    {
        averages_.emplace_back(stat_name, avg);
    }

    /** Register a distribution under @p stat_name. */
    void
    addDistribution(const std::string &stat_name, StatDistribution *dist)
    {
        distributions_.emplace_back(stat_name, dist);
    }

    /** Zero every registered statistic (start of a measurement window). */
    void resetAll();

    /** Append "group.stat value" lines to @p out. */
    void dump(std::string &out) const;

    /** Feed every registered statistic to @p visitor, typed. */
    void visit(StatVisitor &visitor) const;

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::vector<std::pair<std::string, StatCounter *>> counters_;
    std::vector<std::pair<std::string, StatAverage *>> averages_;
    std::vector<std::pair<std::string, StatDistribution *>> distributions_;
};

/** StatGroup::dump()'s line for one statistic from its captured state
 *  (@p name is "group.stat"), so a stored result prints like a live
 *  group (exp::statsText). */
void dumpCounter(std::string &out, const std::string &name,
                 std::uint64_t value);
void dumpAverage(std::string &out, const std::string &name,
                 std::uint64_t count, double mean, double min, double max);
void dumpDistribution(std::string &out, const std::string &name,
                      std::uint64_t count, double mean, std::uint64_t min,
                      std::uint64_t max,
                      const std::vector<std::uint64_t> &buckets);

} // namespace acp

#endif // ACP_COMMON_STATS_HH
