#include "obs/heartbeat.hh"

#include <chrono>
#include <cstdlib>

#include "common/json.hh"
#include "obs/manifest.hh"

namespace acp::obs
{

namespace
{

void
appendStr(std::string &out, const char *key, const std::string &value)
{
    out += '"';
    out += key;
    out += "\":\"";
    out += json::escape(value);
    out += "\",";
}

void
appendU64(std::string &out, const char *key, std::uint64_t value)
{
    out += '"';
    out += key;
    out += "\":";
    out += std::to_string(value);
    out += ',';
}

void
appendF(std::string &out, const char *key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"%s\":%.6g,", key, value);
    out += buf;
}

/** Epoch timestamps need fixed-point: %.6g would round to ~17 min. */
void
appendWall(std::string &out, const char *key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"%s\":%.3f,", key, value);
    out += buf;
}

} // namespace

std::unique_ptr<Heartbeat>
Heartbeat::open(const std::string &spec)
{
    if (spec.empty() || spec == "-")
        return std::make_unique<Heartbeat>(stderr, /*own=*/false);
    if (spec.rfind("fd:", 0) == 0) {
        int fd = int(std::strtol(spec.c_str() + 3, nullptr, 10));
        std::FILE *f = ::fdopen(fd, "w");
        if (!f) {
            std::fprintf(stderr, "heartbeat: cannot adopt fd %d\n", fd);
            return nullptr;
        }
        return std::make_unique<Heartbeat>(f, /*own=*/true);
    }
    std::FILE *f = std::fopen(spec.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "heartbeat: cannot write %s\n", spec.c_str());
        return nullptr;
    }
    return std::make_unique<Heartbeat>(f, /*own=*/true);
}

Heartbeat::Heartbeat(std::FILE *out, bool own) : out_(out), own_(own) {}

Heartbeat::~Heartbeat()
{
    if (own_)
        std::fclose(out_);
}

double
Heartbeat::wallNow()
{
    auto now = std::chrono::system_clock::now().time_since_epoch();
    return double(std::chrono::duration_cast<std::chrono::milliseconds>(
                      now)
                      .count()) /
           1000.0;
}

void
Heartbeat::emit(const std::string &line)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::fputs(line.c_str(), out_);
    std::fputc('\n', out_);
    std::fflush(out_);
}

void
Heartbeat::sweepStart(std::size_t total, unsigned jobs,
                      const Manifest &manifest)
{
    std::string line;
    line.reserve(768);
    line += "{\"t\":\"sweep_start\",\"schema\":\"acp-heartbeat-v1\",";
    appendU64(line, "total", total);
    appendU64(line, "jobs", jobs);
    line += "\"manifest\":";
    line += manifestJsonLine(manifest);
    line += ',';
    appendWall(line, "wall", wallNow());
    line.pop_back();
    line += '}';
    emit(line);
}

void
Heartbeat::point(std::size_t done, std::size_t total, std::size_t cached,
                 std::size_t simulated, const std::string &workload,
                 const std::string &label, double ipc, bool from_cache,
                 double eta_seconds)
{
    std::string line;
    line.reserve(256);
    line += "{\"t\":\"point\",";
    appendU64(line, "done", done);
    appendU64(line, "total", total);
    appendU64(line, "cached", cached);
    appendU64(line, "simulated", simulated);
    appendStr(line, "workload", workload);
    appendStr(line, "label", label);
    appendF(line, "ipc", ipc);
    line += from_cache ? "\"fromCache\":true," : "\"fromCache\":false,";
    appendF(line, "etaSeconds", eta_seconds < 0 ? -1.0 : eta_seconds);
    appendWall(line, "wall", wallNow());
    line.pop_back();
    line += '}';
    emit(line);
}

void
Heartbeat::sweepEnd(std::size_t total, std::size_t cached,
                    std::size_t simulated, double wall_seconds,
                    const std::string &cache_stats)
{
    std::string line;
    line.reserve(256);
    line += "{\"t\":\"sweep_end\",";
    appendU64(line, "total", total);
    appendU64(line, "cached", cached);
    appendU64(line, "simulated", simulated);
    appendF(line, "wallSeconds", wall_seconds);
    if (!cache_stats.empty()) {
        line += cache_stats;
        if (line.back() != ',')
            line += ',';
    }
    appendWall(line, "wall", wallNow());
    line.pop_back();
    line += '}';
    emit(line);
}

void
Heartbeat::runStart(const std::string &workload, const std::string &label)
{
    std::string line;
    line.reserve(128);
    line += "{\"t\":\"run_start\",";
    appendStr(line, "workload", workload);
    appendStr(line, "label", label);
    appendWall(line, "wall", wallNow());
    line.pop_back();
    line += '}';
    emit(line);
}

void
Heartbeat::runTick(const std::string &workload, const std::string &label,
                   const IntervalSample &sample, std::uint64_t insts,
                   std::uint64_t txns)
{
    std::string line;
    line.reserve(512);
    line += "{\"t\":\"tick\",";
    appendStr(line, "workload", workload);
    appendStr(line, "label", label);
    appendU64(line, "cycle", sample.endCycle);
    appendU64(line, "insts", insts);
    appendU64(line, "intervalCycles", sample.cycles);
    appendU64(line, "intervalInsts", sample.insts);
    appendF(line, "intervalIpc", sample.ipc);
    appendU64(line, "txns", txns);
    line += "\"stalls\":{";
    bool first = true;
    for (unsigned i = 0; i < kNumStallCauses; ++i) {
        if (sample.stalls[i] == 0)
            continue;
        if (!first)
            line += ',';
        line += '"';
        line += stallCauseName(StallCause(i));
        line += "\":";
        line += std::to_string(sample.stalls[i]);
        first = false;
    }
    line += "},";
    appendWall(line, "wall", wallNow());
    line.pop_back();
    line += '}';
    emit(line);
}

void
Heartbeat::runEnd(const std::string &workload, const std::string &label,
                  Cycle cycle, std::uint64_t insts, double ipc,
                  const char *reason)
{
    std::string line;
    line.reserve(192);
    line += "{\"t\":\"run_end\",";
    appendStr(line, "workload", workload);
    appendStr(line, "label", label);
    appendU64(line, "cycle", cycle);
    appendU64(line, "insts", insts);
    appendF(line, "ipc", ipc);
    appendStr(line, "reason", reason);
    appendWall(line, "wall", wallNow());
    line.pop_back();
    line += '}';
    emit(line);
}

} // namespace acp::obs
