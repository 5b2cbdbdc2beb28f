#include "exp/point.hh"

#include <cstdio>

#include "crypto/sha256.hh"
#include "sim/config_io.hh"

namespace acp::exp
{

std::string
pointKey(const Point &point)
{
    std::string key;
    key.reserve(2048);
    key += "acp-point-v2\n";
    key += "workload=" + point.workload + "\n";
    char line[96];
    std::snprintf(line, sizeof(line), "workloadSeed=%llu\n",
                  (unsigned long long)point.params.seed);
    key += line;
    std::snprintf(line, sizeof(line), "workingSetBytes=%llu\n",
                  (unsigned long long)point.params.workingSetBytes);
    key += line;
    std::snprintf(line, sizeof(line), "warmupInsts=%llu\n",
                  (unsigned long long)point.warmupInsts);
    key += line;
    std::snprintf(line, sizeof(line), "measureInsts=%llu\n",
                  (unsigned long long)point.measureInsts);
    key += line;
    std::snprintf(line, sizeof(line), "cyclesPerInst=%llu\n",
                  (unsigned long long)kCyclesPerInst);
    key += line;
    key += sim::serializeConfig(point.cfg);
    return key;
}

std::string
pointDigest(const Point &point)
{
    std::string key = pointKey(point);
    auto digest = crypto::Sha256::digest(
        reinterpret_cast<const std::uint8_t *>(key.data()), key.size());
    static const char *hex = "0123456789abcdef";
    std::string out;
    out.reserve(2 * digest.size());
    for (std::uint8_t byte : digest) {
        out += hex[byte >> 4];
        out += hex[byte & 0xf];
    }
    return out;
}

} // namespace acp::exp
