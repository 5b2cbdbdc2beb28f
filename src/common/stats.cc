#include "common/stats.hh"

#include <cstdio>

namespace acp
{

void
StatGroup::resetAll()
{
    for (auto &[stat_name, counter] : counters_)
        counter->reset();
    for (auto &[stat_name, avg] : averages_)
        avg->reset();
    for (auto &[stat_name, dist] : distributions_)
        dist->reset();
}

void
dumpCounter(std::string &out, const std::string &name, std::uint64_t value)
{
    out += name + ' ' + std::to_string(value) + '\n';
}

void
dumpAverage(std::string &out, const std::string &name, std::uint64_t count,
            double mean, double min, double max)
{
    char line[512];
    // Empty window: min/max never sampled — render them as "-" so an
    // empty statistic is distinguishable from one whose samples really
    // were zero.
    if (count == 0)
        std::snprintf(line, sizeof(line),
                      "%s mean=%.4f count=0 min=- max=-\n", name.c_str(),
                      mean);
    else
        std::snprintf(line, sizeof(line),
                      "%s mean=%.4f count=%llu min=%.2f max=%.2f\n",
                      name.c_str(), mean, (unsigned long long)count, min,
                      max);
    out += line;
}

void
dumpDistribution(std::string &out, const std::string &name,
                 std::uint64_t count, double mean, std::uint64_t min,
                 std::uint64_t max, const std::vector<std::uint64_t> &buckets)
{
    if (count == 0)
        return dumpAverage(out, name, count, mean, 0.0, 0.0);
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s mean=%.4f count=%llu min=%llu max=%llu buckets=",
                  name.c_str(), mean, (unsigned long long)count,
                  (unsigned long long)min, (unsigned long long)max);
    out += line;
    const char *separator = "";
    for (unsigned i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0)
            continue;
        std::snprintf(line, sizeof(line), "%s[%llu,%llu):%llu", separator,
                      (unsigned long long)StatDistribution::bucketLow(i),
                      (unsigned long long)StatDistribution::bucketHigh(i),
                      (unsigned long long)buckets[i]);
        out += line;
        separator = ",";
    }
    out += '\n';
}

void
StatGroup::dump(std::string &out) const
{
    for (const auto &[stat_name, counter] : counters_)
        dumpCounter(out, name_ + "." + stat_name, counter->value());
    for (const auto &[stat_name, avg] : averages_)
        dumpAverage(out, name_ + "." + stat_name, avg->count(), avg->mean(),
                    avg->min(), avg->max());
    for (const auto &[stat_name, dist] : distributions_)
        dumpDistribution(out, name_ + "." + stat_name, dist->count(),
                         dist->mean(), dist->min(), dist->max(),
                         dist->buckets());
}

void
StatGroup::visit(StatVisitor &visitor) const
{
    for (const auto &[stat_name, counter] : counters_)
        visitor.onCounter(name_ + "." + stat_name, counter->value());
    for (const auto &[stat_name, avg] : averages_)
        visitor.onAverage(name_ + "." + stat_name, *avg);
    for (const auto &[stat_name, dist] : distributions_)
        visitor.onDistribution(name_ + "." + stat_name, *dist);
}

} // namespace acp
