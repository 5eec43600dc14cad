#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <sys/resource.h>
#include <thread>
#include <unordered_map>

#include "bench.hh"
#include "sim/stats_json.hh"
#include "workload/generators.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

void
Result::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
Result::note(const std::string &line)
{
    notes.push_back(line);
}

void
Result::fail(const std::string &why)
{
    ++failed;
    note("FAILED: " + why);
}

namespace
{

// Sizes are chosen so that one repetition takes one to three seconds
// on a 2.1 GHz Xeon: a 20-second run then holds about 10 to 20 of
// them.
const CellWorkload radixTsoper{"tsoper", "radix", 6.0};
const CellWorkload cannealBsp{"bsp", "canneal", 4.0};

const SweepWorkload fig11{
    {"baseline", "hwrp", "bsp", "stw", "tsoper"}, {}, 0.5, 1, {}, false,
    false};

const SweepWorkload crashMatrix{{"tsoper", "stw", "bsp-slc-agb"},
                                {"radix", "dedup", "ocean_cp"},
                                0.5,
                                2,
                                {0.25, 0.5, 0.75},
                                true,
                                true};

} // namespace

const std::vector<WorkloadDef> &
workloads()
{
    // Why each workload exists: perfbench/README.md and BENCHMARK.json.
    static const std::vector<WorkloadDef> table = {
        {"cell_radix_tsoper", &radixTsoper, nullptr},
        {"cell_canneal_bsp", &cannealBsp, nullptr},
        {"sweep_fig11", nullptr, &fig11},
        {"sweep_crash", nullptr, &crashMatrix},
    };
    return table;
}

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

tsoper::campaign::CampaignSpec
sweepSpec(const std::string &name, const SweepWorkload &w,
          std::uint64_t seed)
{
    tsoper::campaign::CampaignSpec spec;
    spec.name = name;
    spec.engines = w.engines;
    spec.benches = w.benches.empty() ? tsoper::benchmarkNames()
                                     : w.benches;
    spec.scales = {w.scale};
    spec.seeds.clear();
    for (unsigned i = 0; i < w.seedsPerCell; ++i)
        spec.seeds.push_back(seed + i);
    spec.crashFractions = w.crashFractions;
    spec.check = w.check;
    return spec;
}

unsigned
poolJobs()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

tsoper::SystemConfig
cellConfig(const std::string &engine, std::uint64_t seed)
{
    tsoper::EngineKind kind;
    tsoper::ProtocolKind protocol;
    if (!tsoper::engineFromName(engine, &kind, &protocol))
        throw std::runtime_error("unknown engine " + engine);
    tsoper::SystemConfig cfg = tsoper::makeConfig(kind);
    cfg.protocol = protocol;
    cfg.seed = seed;
    return cfg;
}

std::string
statsDigest(const tsoper::Json &stats)
{
    tsoper::Json doc = tsoper::Json::object();
    for (const auto &[key, value] : stats.members()) {
        if (key != "counters") {
            doc.set(key, value);
            continue;
        }
        tsoper::Json counters = tsoper::Json::object();
        for (const auto &[name, count] : value.members())
            if (name.rfind("sys.kernel_", 0) != 0)
                counters.set(name, count);
        doc.set(key, counters);
    }
    return digestOf(doc.dump());
}

std::string
digestOf(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
statsDigest(const tsoper::StatsRegistry &stats)
{
    return statsDigest(tsoper::statsToJson(stats));
}

std::uint64_t
counterOf(const tsoper::Json &stats, const std::string &name)
{
    const tsoper::Json *counters = stats.find("counters");
    const tsoper::Json *c = counters ? counters->find(name) : nullptr;
    return c ? c->asUint() : 0;
}

std::uint64_t
memOps(const tsoper::Json &stats)
{
    return counterOf(stats, "cpu.loads") + counterOf(stats, "cpu.stores");
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace
{

/** Keeps the probe's work observable, so it is not optimised away. */
volatile std::size_t referenceProbeSink;

double
probeOnce()
{
    // Fixed sizes and seed: the probe must do the same work in every
    // run of every commit.
    constexpr unsigned ops = 300000;
    constexpr std::uint64_t keys = 200000;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const Clock::time_point t0 = Clock::now();
    std::unordered_map<std::uint64_t, std::uint64_t> hashed;
    std::map<std::uint64_t, std::uint64_t> ordered;
    for (unsigned i = 0; i < ops; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t k = (x >> 20) % keys;
        hashed[k] += i;
        if (i % 4 == 0) {
            ordered[k] = i;
        } else {
            const auto it = ordered.find(k);
            if (it != ordered.end())
                ordered.erase(it);
        }
    }
    const double s = secondsSince(t0);
    referenceProbeSink = hashed.size() + ordered.size();
    return s;
}

} // namespace

double
referenceProbeS(unsigned threads)
{
    std::vector<double> s(std::max(1u, threads));
    std::vector<std::thread> others;
    for (std::size_t i = 1; i < s.size(); ++i)
        others.emplace_back([&s, i] { s[i] = probeOnce(); });
    s[0] = probeOnce();
    for (std::thread &t : others)
        t.join();
    double sum = 0.0;
    for (double v : s)
        sum += v;
    return sum / static_cast<double>(s.size());
}

} // namespace perfbench
