/**
 * @file
 * End-to-end measurement (tracing off): repeat the workload for the
 * run's time budget.  Every repetition is also an output check: its
 * status must be ok and its stats digest must equal the first
 * repetition's, since the same seed must give the same simulated
 * machine.
 *
 * The host is shared, and its speed for the simulator's kind of code
 * drifts by up to 2x over seconds to minutes.  So every repetition is
 * bracketed by the reference probe (referenceProbeS()), and timed as
 * its host seconds divided by the mean of the two probes around it.
 * wall_s is the median of these ratios over the run, given back in
 * seconds at the probe's nominal speed; sim_mops is the simulated
 * work divided by wall_s.  The raw host seconds and the probe times
 * are printed next to them.  setup_s is a median over many set-ups
 * spread over the run.  A sweep's set-up drifts with the probe, so it
 * is divided by the run's median probe like wall_s.  A cell's set-up
 * drifts much less than the probe (perfbench/README.md, "Host
 * noise"), so dividing would overcorrect; it is given in host
 * seconds.
 *
 * peak_rss_mb is the process high-water after the first repetition:
 * later repetitions add only allocator fragmentation, which would tie
 * the figure to the number of repetitions that fit in the budget.
 */

#include <cstdio>
#include <exception>
#include <set>
#include <tuple>

#include "bench.hh"
#include "campaign/report.hh"
#include "campaign/runner.hh"
#include "core/system.hh"
#include "sim/stats_json.hh"
#include "workload/generators.hh"

namespace perfbench
{

using namespace tsoper;

namespace
{

/** A run holds at least this many repetitions, whatever its budget,
 *  so the digest comparison always has a second sample and at least
 *  two repetitions follow the warm-up. */
constexpr unsigned minReps = 3;

std::string
fmt(const char *format, double a, double b = 0.0, double c = 0.0)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), format, a, b, c);
    return buf;
}

/** The spread of @p v over a run's repetitions. */
std::string
spreadNote(const std::string &what, const std::vector<double> &v)
{
    std::string s = what + " over repetitions:";
    for (double p : {0.0, 25.0, 50.0, 75.0, 100.0})
        s += fmt(" p%.0f %.4f", p, percentile(v, p));
    return s;
}

/**
 * Host seconds of each timed repetition and the reference probes
 * taken between them.  The first repetition is a warm-up: it is not
 * timed, and the first probe follows it, so that the probe's own
 * memory stays out of peak_rss_mb.  Then: probe 0, repetition 1,
 * probe 1, repetition 2, probe 2, ...
 */
struct Paced
{
    /** Probe threads: as many as a repetition keeps busy. */
    unsigned threads;
    std::vector<double> wall;
    std::vector<double> probes;

    explicit Paced(unsigned threads_) : threads(threads_) {}

    /** Record one repetition (the first only as warm-up) and take the
     *  probe after it. */
    void
    add(double wallS)
    {
        if (!probes.empty())
            wall.push_back(wallS);
        probes.push_back(referenceProbeS(threads));
    }

    /** @p s host seconds at the probe's nominal speed, by the run's
     *  median probe. */
    double
    normalised(double s) const
    {
        return s / median(probes) * referenceProbeNominalS;
    }

    /** Median of wall / mean of the probes around it, in seconds at
     *  the probe's nominal speed. */
    double
    wallS() const
    {
        std::vector<double> ratio;
        for (std::size_t i = 0; i < wall.size(); ++i)
            ratio.push_back(wall[i] / (0.5 * (probes[i] + probes[i + 1])));
        return median(ratio) * referenceProbeNominalS;
    }

    /** Add wall_s and sim_mops (@p ops simulated per repetition),
     *  and print the raw figures behind them. */
    void
    report(std::uint64_t ops, Result *res) const
    {
        res->note(spreadNote("host wall_s", wall));
        res->note(spreadNote("reference probe s", probes) +
                  fmt(" on %.0f threads (nominal %.3f)", threads,
                      referenceProbeNominalS));
        const double w = wallS();
        res->add("wall_s", w, "s");
        res->add("sim_mops", static_cast<double>(ops) / w / 1e6, "Mop/s");
    }
};

/** Host seconds of one cell set-up: workload generation plus System
 *  construction. */
double
cellSetupS(const CellWorkload &w, const SystemConfig &cfg,
           std::uint64_t seed)
{
    const Clock::time_point t0 = Clock::now();
    const Workload wl = generateByName(w.bench, cfg.numCores, seed, w.scale);
    System sys(cfg, wl);
    return secondsSince(t0);
}

Result
runCell(const CellWorkload &w, const Options &opt)
{
    Result res;
    const SystemConfig cfg = cellConfig(w.engine, opt.seed);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt.seconds));
    std::vector<double> setup;
    Paced paced(1);
    std::string firstDigest;
    std::uint64_t execCycles = 0, ops = 0;
    double rss = 0;
    for (unsigned rep = 0; rep < minReps || Clock::now() < deadline;
         ++rep) {
        ++res.attempted;
        const Clock::time_point t0 = Clock::now();
        const Workload wl =
            generateByName(w.bench, cfg.numCores, opt.seed, w.scale);
        System sys(cfg, wl);
        const double setupS = secondsSince(t0);
        const Clock::time_point t1 = Clock::now();
        try {
            sys.run();
        } catch (const std::exception &e) {
            res.fail(std::string("run threw: ") + e.what());
            continue;
        }
        const double runS = secondsSince(t1);
        if (!sys.allFinished()) {
            res.fail("cores did not finish");
            continue;
        }
        const Json stats = statsToJson(sys.stats());
        const std::string digest = statsDigest(stats);
        if (firstDigest.empty()) {
            firstDigest = digest;
            execCycles = counterOf(stats, "sys.exec_cycles");
            ops = memOps(stats);
            rss = peakRssMb();
        } else if (digest != firstDigest) {
            res.fail("stats digest " + digest + " differs from " +
                     firstDigest + " for the same seed");
            continue;
        }
        setup.push_back(setupS);
        paced.add(runS);
        // One more set-up sample per repetition, spread over the run
        // like the repetitions' own.
        setup.push_back(cellSetupS(w, cfg, opt.seed));
    }
    // One or two per repetition are too few for a steady median of a
    // ~10 ms figure in a short run.
    while (setup.size() < 31)
        setup.push_back(cellSetupS(w, cfg, opt.seed));
    res.note("stats digest " + firstDigest + ", core.exec_cycles " +
             std::to_string(execCycles));
    res.note(std::to_string(paced.wall.size()) +
             " timed repetitions (after a warm-up) of " + w.bench +
             fmt(" x%g", w.scale) + " under " + w.engine);
    paced.report(ops, &res);
    res.add("setup_s", median(setup), "s");
    res.add("peak_rss_mb", rss, "MiB");
    return res;
}

/** Time @p count set-ups of a sweep into @p samples.  A set-up is
 *  what the sweep does before its cells simulate: spec expansion,
 *  generating each distinct workload of the grid once, and starting
 *  and stopping the campaign pool (a campaign of no cells). */
void
sweepSetups(const std::string &name, const SweepWorkload &w,
            const Options &opt, unsigned count,
            std::vector<double> *samples)
{
    campaign::RunnerOptions ropt;
    ropt.jobs = poolJobs();
    for (unsigned i = 0; i < count; ++i) {
        const Clock::time_point t0 = Clock::now();
        std::set<std::tuple<std::string, std::uint64_t, double>> made;
        for (const campaign::RunRequest &r :
             campaign::expand(sweepSpec(name, w, opt.seed)))
            if (made.emplace(r.bench, r.seed, r.scale).second)
                generateByName(r.bench,
                               cellConfig(r.engine, r.seed).numCores,
                               r.seed, r.scale);
        campaign::runCampaign(name, {}, ropt);
        samples->push_back(secondsSince(t0));
    }
}

/** The persist-order audit of every sweep cell.  The trace bus is
 *  process-global, so audited cells run one at a time (jobs = 1); the
 *  pass is a check and stays outside the timed repetitions. */
void
auditSweep(const std::string &name, const SweepWorkload &w,
           const Options &opt, Result *res)
{
    std::vector<campaign::RunRequest> cells =
        campaign::expand(sweepSpec(name, w, opt.seed));
    for (campaign::RunRequest &r : cells)
        r.auditPersists = true;
    campaign::RunnerOptions ropt;
    ropt.jobs = 1;
    const Clock::time_point t0 = Clock::now();
    const campaign::CampaignReport report =
        campaign::runCampaign(name + "-audit", cells, ropt);
    std::uint64_t commits = 0;
    for (const campaign::CellReport &c : report.cells) {
        ++res->attempted;
        commits += c.result.persistCommits;
        if (c.result.status != campaign::RunStatus::Ok ||
            !c.result.persistAudited || !c.result.persistAuditOk)
            res->fail("persist audit of " + c.request.id + ": " +
                      toString(c.result.status) + " " +
                      c.result.persistAuditDetail);
    }
    res->note(fmt("persist audit: %.0f cells, %.0f commits, %.2f s "
                  "(one cell at a time)",
                  report.cells.size(), commits, secondsSince(t0)));
}

Result
runSweep(const std::string &name, const SweepWorkload &w,
         const Options &opt)
{
    Result res;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt.seconds));
    Paced paced(poolJobs());
    // Set-ups are spread over the run, two after every repetition,
    // rather than timed in one burst that samples a single moment of
    // the host.
    std::vector<double> setup;
    std::vector<std::string> firstDigests;
    std::size_t cells = 0;
    std::uint64_t execCycles = 0, ops = 0;
    double rss = 0;
    for (unsigned rep = 0; rep < minReps || Clock::now() < deadline;
         ++rep) {
        const SweepRep r = runSweepOnce(name, w, opt, &res);
        cells = r.digests.size();
        if (firstDigests.empty()) {
            firstDigests = r.digests;
            execCycles = r.execCycles;
            ops = r.ops;
            rss = peakRssMb();
        } else {
            for (std::size_t i = 0; i < cells; ++i)
                if (r.digests[i] != firstDigests[i])
                    res.fail("cell " + std::to_string(i) +
                             ": stats digest differs across repeats");
        }
        paced.add(r.wallS);
        sweepSetups(name, w, opt, 2, &setup);
    }
    if (setup.size() < 11)
        sweepSetups(name, w, opt, 11 - setup.size(), &setup);
    if (w.auditPersists)
        auditSweep(name, w, opt, &res);

    std::string all;
    for (const std::string &d : firstDigests)
        all += d;
    res.note("stats digest " + digestOf(all) + " over " +
             std::to_string(cells) + " cells, core.exec_cycles " +
             std::to_string(execCycles) + " summed");
    res.note(fmt("%.0f timed repetitions (after a warm-up) of %.0f cells "
                 "on %.0f pool jobs",
                 paced.wall.size(), cells, poolJobs()));
    paced.report(ops, &res);
    res.note(fmt("host setup_s %.6f", median(setup)));
    res.add("setup_s", paced.normalised(median(setup)), "s");
    res.add("peak_rss_mb", rss, "MiB");
    return res;
}

} // namespace

SweepRep
runSweepOnce(const std::string &name, const SweepWorkload &w,
             const Options &opt, Result *res)
{
    return runCampaignOnce(
        name, [&] { return campaign::expand(sweepSpec(name, w, opt.seed)); },
        opt, res);
}

SweepRep
runCampaignOnce(
    const std::string &name,
    const std::function<std::vector<campaign::RunRequest>()> &expandCells,
    const Options &opt, Result *res)
{
    SweepRep rep;
    campaign::RunnerOptions ropt;
    ropt.jobs = poolJobs();
    rep.jobs = ropt.jobs;
    const std::string path = opt.outDir + "/" + name + "-report.json";

    const Clock::time_point t0 = Clock::now();
    const std::vector<campaign::RunRequest> cells = expandCells();
    rep.expandS = secondsSince(t0);
    const campaign::CampaignReport report =
        campaign::runCampaign(name, cells, ropt);
    const Clock::time_point t1 = Clock::now();
    std::string err;
    if (!campaign::writeReportFile(report, path, &err))
        res->fail("report not written: " + err);
    rep.reportS = secondsSince(t1);
    rep.wallS = secondsSince(t0);

    for (const campaign::CellReport &c : report.cells) {
        ++res->attempted;
        const campaign::RunResult &r = c.result;
        if (r.status != campaign::RunStatus::Ok)
            res->fail(c.request.id + ": " + toString(r.status) + " " +
                      r.detail);
        else if (c.request.check && !r.audited)
            res->fail(c.request.id + ": recovery check did not run");
        rep.digests.push_back(statsDigest(r.stats));
        rep.ops += memOps(r.stats);
        rep.execCycles += r.cycles;
        rep.cellWallS.push_back(c.wallMs / 1000.0);
        rep.engines.push_back(c.request.engine);
        rep.benches.push_back(c.request.bench);
        rep.cycles.push_back(r.cycles);
        rep.retries += c.attempts - 1;
    }
    return rep;
}

Result
runEndToEnd(const WorkloadDef &w, const Options &opt)
{
    Result res = w.cell ? runCell(*w.cell, opt)
                        : runSweep(w.name, *w.sweep, opt);
    res.add("ok_frac",
            1.0 - static_cast<double>(res.failed) /
                      static_cast<double>(res.attempted),
            "fraction");
    return res;
}

} // namespace perfbench
