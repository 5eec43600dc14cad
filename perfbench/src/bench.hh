/**
 * @file
 * Shared declarations of the benchmark program: the workload table,
 * the result a run hands back to main(), and small measuring helpers.
 *
 * The program reaches the simulator only through its public library
 * functions (generateByName, System, campaign::expand/runCampaign,
 * the standalone protocol / LLC / mesh / cache-array / event-queue
 * classes and the trace bus), so internal rewrites of the simulator
 * are measured by this code unchanged.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/spec.hh"
#include "sim/config.hh"
#include "sim/json.hh"
#include "sim/stats.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string outDir; ///< Where campaign reports are written.
};

/** One named value of the final result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run hands back to main(). */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;

    void add(const std::string &name, double value,
             const std::string &unit);
    void note(const std::string &line);
    /** Count one failed run and say why. */
    void fail(const std::string &why);
};

/** A single simulated machine running one benchmark. */
struct CellWorkload
{
    std::string engine;
    std::string bench;
    double scale = 1.0;
};

/** A paper sweep on the in-process campaign pool. */
struct SweepWorkload
{
    std::vector<std::string> engines;
    std::vector<std::string> benches; ///< Empty = all 21 benchmarks.
    double scale = 1.0;
    unsigned seedsPerCell = 1; ///< Seeds seed, seed+1, ...
    std::vector<double> crashFractions;
    bool check = false;
    /** Persist-order audit of every cell after the timed phase. */
    bool auditPersists = false;
};

/** The workload table entry for @p name; exactly one of the two
 *  pointers is set, both are null for an unknown name. */
struct WorkloadDef
{
    const char *name;
    const CellWorkload *cell;
    const SweepWorkload *sweep;
};
const std::vector<WorkloadDef> &workloads();
const WorkloadDef *findWorkload(const std::string &name);

/** The campaign spec of @p w for workload seed @p seed. */
tsoper::campaign::CampaignSpec sweepSpec(const std::string &name,
                                         const SweepWorkload &w,
                                         std::uint64_t seed);

/** Jobs for the campaign pool: nproc. */
unsigned poolJobs();

/** Machine configuration of a cell, as the campaign layer builds it
 *  (engine defaults, 8 cores, no store recording). */
tsoper::SystemConfig cellConfig(const std::string &engine,
                                std::uint64_t seed);

/** Digest of a stats document: FNV-1a 64 over its compact JSON, with
 *  the sys.kernel_* counters left out (they describe the event
 *  kernel's implementation, not the simulated machine). */
std::string statsDigest(const tsoper::Json &stats);
std::string statsDigest(const tsoper::StatsRegistry &stats);
/** FNV-1a 64 of @p bytes, as 16 hex digits. */
std::string digestOf(const std::string &bytes);

/** Simulated memory ops retired: cpu.loads + cpu.stores. */
std::uint64_t memOps(const tsoper::Json &stats);
/** One counter of a stats document (0 when absent). */
std::uint64_t counterOf(const tsoper::Json &stats,
                        const std::string &name);

double median(std::vector<double> v);
/** Nearest-rank percentile, @p p in [0, 100]. */
double percentile(std::vector<double> v, double p);

/** Host memory high-water of this process, MiB. */
double peakRssMb();

/**
 * Host-speed reference: seconds taken by a fixed, benchmark-owned
 * kernel of hash-map and ordered-map churn (allocation and pointer
 * chasing over a few MiB, as in the simulator's own tables).  The
 * host's speed for such code drifts by up to 2x over seconds to
 * minutes with its neighbours' load; this kernel drifts with it, so
 * a repetition's time divided by the probes around it does not.
 * The kernel is independent of --seed and of the simulator sources.
 * With @p threads > 1 a copy runs on each of that many threads at
 * once, as the pooled sweeps run, and the mean of their times is
 * returned.
 */
double referenceProbeS(unsigned threads = 1);
/** The probe's time on a quiet 4-CPU Xeon (Sapphire Rapids, 2.1
 *  GHz): the unit in which normalised times are given back as
 *  seconds. */
constexpr double referenceProbeNominalS = 0.11;

/** End-to-end metrics (tracing off). */
Result runEndToEnd(const WorkloadDef &w, const Options &opt);
/** Per-layer metrics (the traced run). */
Result runLayers(const WorkloadDef &w, const Options &opt);

/** One timed repetition of a sweep: expansion, the pooled campaign
 *  and the written report.  Used by both kinds of run. */
struct SweepRep
{
    double wallS = 0.0;
    double expandS = 0.0;
    double reportS = 0.0;
    std::uint64_t ops = 0;
    /** Finish cycles summed over cells (of the timing run for crash
     *  cells, whose stats come from the crash run). */
    std::uint64_t execCycles = 0;
    std::vector<std::string> digests; ///< Per cell, expansion order.
    std::vector<double> cellWallS;
    std::vector<std::string> engines;
    std::vector<std::string> benches;
    std::vector<std::uint64_t> cycles;
    unsigned retries = 0;
    unsigned jobs = 1;
};
SweepRep runCampaignOnce(
    const std::string &name,
    const std::function<std::vector<tsoper::campaign::RunRequest>()>
        &expandCells,
    const Options &opt, Result *res);
/** runCampaignOnce over the expansion of sweepSpec(). */
SweepRep runSweepOnce(const std::string &name, const SweepWorkload &w,
                      const Options &opt, Result *res);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
