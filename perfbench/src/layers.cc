/**
 * @file
 * Per-layer metrics: the traced run.
 *
 * Host time is split from outside the simulator.  Each decomposition
 * cell is run untraced (sim.run_s), then again with the llc and noc
 * trace categories feeding a recording sink, and the recorded streams
 * are replayed through standalone copies of the layers:
 *
 *   coherence  the cell's per-core load/store streams through a fresh
 *              SlcProtocol or MesiProtocol with default hooks (this
 *              includes the LLC, NoC and kernel work the protocol
 *              causes, but no store buffer and no persistency engine);
 *   mem        the recorded LLC stream through Llc::access and each
 *              core's line stream through a CacheArray;
 *   noc        the recorded (src, dst, bytes, depart) stream through
 *              Mesh::route;
 *   sim        a standalone EventQueue executing as many events as the
 *              cell did.
 *
 * core.self_s is what the coherence replay leaves of sim.run_s.
 * sim.unattributed_frac is 1 - (the split) / sim.run_s, where the split
 * adds core.self_s, the coherence replay minus its own kernel/mem/noc
 * estimates, and the kernel/mem/noc estimates from the cell's counts;
 * its distance from 0 says how far to trust the split.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>

#include "bench.hh"
#include "campaign/report.hh"
#include "campaign/runner.hh"
#include "coherence/mesi.hh"
#include "coherence/slc.hh"
#include "core/crash_checker.hh"
#include "core/system.hh"
#include "mem/cache_array.hh"
#include "mem/llc.hh"
#include "mem/nvm.hh"
#include "noc/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/stats_json.hh"
#include "sim/trace.hh"
#include "workload/generators.hh"

namespace perfbench
{

using namespace tsoper;

namespace
{

struct LlcRec
{
    LineAddr line;
    Cycle when;
};

struct NocRec
{
    int src;
    int dst;
    unsigned bytes;
    Cycle depart;
};

/** Records the LLC and NoC streams of a traced run. */
class StreamSink : public trace::Sink
{
  public:
    std::vector<LlcRec> llc;
    std::vector<NocRec> noc;

    void
    record(const trace::Record &r) override
    {
        if (r.event == trace::Event::LlcAccess)
            llc.push_back({r.id, r.begin});
        else if (r.event == trace::Event::NocMsg)
            noc.push_back({static_cast<int>(r.id >> 32),
                           static_cast<int>(r.id & 0xffffffffu),
                           static_cast<unsigned>(r.a), r.begin});
    }
};

/** Host time and work of the standalone replays, summed over cells. */
struct Replays
{
    double coherenceS = 0, kernelS = 0, llcS = 0, nocS = 0, privS = 0;
    std::uint64_t coherenceOps = 0, kernelEvents = 0, llcN = 0, nocN = 0,
                  privN = 0;
    // What the coherence replay itself did, for its own split.
    std::uint64_t cohEvents = 0, cohLlc = 0, cohMsgs = 0;
};

/** Sums over the decomposition cells of one workload. */
struct Totals
{
    unsigned cells = 0;
    double generateS = 0, buildS = 0, runS = 0, tracedS = 0,
           statsJsonS = 0, crashRunS = 0, checkS = 0;
    std::uint64_t events = 0, ops = 0, memOps = 0, crashCells = 0;
    std::map<std::string, std::uint64_t> counters;
    double listLenTotal = 0;
    std::uint64_t listLenSamples = 0;
    Replays rep;
};

/** Runs a trace's load/store ops through a standalone protocol: each
 *  core issues its next op when the previous one completes. */
void
replayCoherence(const SystemConfig &cfg, const Workload &w, Replays *out)
{
    StatsRegistry stats;
    EventQueue eq;
    Mesh mesh(cfg, stats);
    Nvm nvm(cfg, eq, stats);
    Llc llc(cfg, nvm, stats);
    std::unique_ptr<CoherenceProtocol> proto;
    if (cfg.protocol == ProtocolKind::Slc)
        proto = std::make_unique<SlcProtocol>(cfg, eq, mesh, llc, nvm,
                                              stats);
    else
        proto = std::make_unique<MesiProtocol>(cfg, eq, mesh, llc, nvm,
                                               stats);

    std::vector<std::size_t> next(cfg.numCores, 0);
    std::vector<std::uint64_t> seq(cfg.numCores, 0);
    std::uint64_t ops = 0;
    std::function<void(CoreId)> issue = [&](CoreId c) {
        const Trace &t = w.perCore[c];
        while (next[c] < t.size()) {
            const TraceOp &op = t[next[c]++];
            const auto resume = [&eq, &issue, c](Cycle at) {
                eq.schedule(std::max(at, eq.now()),
                            [&issue, c] { issue(c); });
            };
            if (op.type == OpType::Load) {
                ++ops;
                proto->load(c, op.addr,
                            [resume](Cycle at, StoreId) { resume(at); });
                return;
            }
            if (op.type == OpType::Store) {
                ++ops;
                proto->store(c, op.addr, makeStoreId(c, seq[c]++),
                             [resume](Cycle at) { resume(at); });
                return;
            }
        }
    };
    const Clock::time_point t0 = Clock::now();
    for (unsigned c = 0; c < cfg.numCores; ++c)
        eq.schedule(0, [&issue, c] { issue(static_cast<CoreId>(c)); });
    eq.run();
    out->coherenceS += secondsSince(t0);
    out->coherenceOps += ops;
    out->cohEvents += eq.executed();
    out->cohLlc += stats.get("llc.accesses");
    out->cohMsgs += stats.get("noc.messages");
}

/** Fastest of three timed replays.  @p prepare builds fresh layer
 *  objects outside the timed region, so that a short stream measures
 *  the accesses and not the construction of an 8 MiB LLC. */
template <typename State>
double
fastestOf3(const std::function<std::unique_ptr<State>()> &prepare,
           const std::function<void(State &)> &replay)
{
    double best = 0;
    for (int i = 0; i < 3; ++i) {
        const std::unique_ptr<State> st = prepare();
        const Clock::time_point t0 = Clock::now();
        replay(*st);
        const double s = secondsSince(t0);
        best = i == 0 ? s : std::min(best, s);
    }
    return best;
}

struct LlcState
{
    StatsRegistry stats;
    EventQueue eq;
    Nvm nvm;
    Llc llc;

    explicit LlcState(const SystemConfig &cfg)
        : nvm(cfg, eq, stats), llc(cfg, nvm, stats)
    {}
};

void
replayLlc(const SystemConfig &cfg, const std::vector<LlcRec> &stream,
          Replays *out)
{
    Cycle sink = 0;
    out->llcS += fastestOf3<LlcState>(
        [&] { return std::make_unique<LlcState>(cfg); },
        [&](LlcState &st) {
            for (const LlcRec &r : stream)
                sink += st.llc.access(r.line, r.when);
        });
    out->llcN += stream.size();
    (void)sink;
}

struct MeshState
{
    StatsRegistry stats;
    Mesh mesh;

    explicit MeshState(const SystemConfig &cfg) : mesh(cfg, stats) {}
};

void
replayNoc(const SystemConfig &cfg, const std::vector<NocRec> &stream,
          Replays *out)
{
    Cycle sink = 0;
    out->nocS += fastestOf3<MeshState>(
        [&] { return std::make_unique<MeshState>(cfg); },
        [&](MeshState &st) {
            for (const NocRec &r : stream)
                sink += st.mesh.route(r.src, r.dst, r.bytes, r.depart);
        });
    out->nocN += stream.size();
    (void)sink;
}

void
replayPrivCache(const SystemConfig &cfg, const Workload &w, Replays *out)
{
    std::vector<std::vector<LineAddr>> lines(w.perCore.size());
    std::uint64_t n = 0;
    for (std::size_t c = 0; c < w.perCore.size(); ++c)
        for (const TraceOp &op : w.perCore[c])
            if (op.type == OpType::Load || op.type == OpType::Store) {
                lines[c].push_back(lineOf(op.addr));
                ++n;
            }
    using Arrays = std::vector<CacheArray>;
    out->privS += fastestOf3<Arrays>(
        [&] {
            return std::make_unique<Arrays>(
                lines.size(), CacheArray(cfg.privSets, cfg.privWays));
        },
        [&](Arrays &arrays) {
            for (std::size_t c = 0; c < lines.size(); ++c) {
                for (LineAddr l : lines[c]) {
                    if (arrays[c].contains(l))
                        arrays[c].touch(l);
                    else
                        arrays[c].insert(l);
                }
            }
        });
    out->privN += n;
}

/** One self-rescheduling event chain with a fixed mix of zero, short
 *  and NVM-length delays. */
struct Tick
{
    EventQueue *eq;
    std::uint64_t *left;
    std::uint32_t state;

    void
    operator()()
    {
        if (*left == 0)
            return;
        --*left;
        static constexpr Cycle delays[8] = {0, 1, 2, 3, 5, 20, 40, 360};
        state = state * 1664525u + 1013904223u;
        eq->scheduleIn(delays[state >> 29], Tick{eq, left, state});
    }
};

struct KernelState
{
    EventQueue eq;
    std::uint64_t left = 0;
};

void
replayKernel(std::uint64_t events, Replays *out)
{
    constexpr std::uint32_t chains = 16;
    out->kernelS += fastestOf3<KernelState>(
        [&] {
            auto st = std::make_unique<KernelState>();
            st->left = events;
            for (std::uint32_t i = 0; i < chains; ++i)
                st->eq.schedule(i, Tick{&st->eq, &st->left, i});
            return st;
        },
        [](KernelState &st) { st.eq.run(); });
    // Each chain ends with one event that finds nothing left to do.
    out->kernelEvents += events + chains;
}

/** Engines whose durable state must audit clean at any instant (the
 *  crash-matrix set); other engines' crash checks are timed but their
 *  verdict is only reported. */
bool
crashSafeEngine(const std::string &engine)
{
    return engine == "tsoper" || engine == "stw" ||
           engine == "bsp-slc-agb";
}

const char *const countersKept[] = {
    "sys.exec_cycles",       "cpu.sb_full_stalls",
    "ag.persisted",          "agb.lines_buffered",
    "agb.alloc_stall_cycles", "slc.misses",
    "slc.hits",              "mesi.misses",
    "mesi.hits",             "dir.evictions",
    "mshr.full_stalls",      "llc.accesses",
    "nvm.writes_done",       "nvm.rank_wait_cycles",
    "noc.messages",          "noc.link_wait_cycles",
};

/** Decompose one cell into the totals.  The untraced run, the traced
 *  run and the coherence replay are interleaved @p passes times and
 *  the fastest of each kept.  @p crash also times a crash at half the
 *  run and the durable-state check. */
void
decomposeCell(const CellWorkload &c, std::uint64_t seed, unsigned passes,
              bool crash, Totals *tot, Result *res)
{
    const SystemConfig cfg = cellConfig(c.engine, seed);
    const std::string id = c.engine + "/" + c.bench;
    Clock::time_point t0 = Clock::now();
    const Workload w = generateByName(c.bench, cfg.numCores, seed, c.scale);
    tot->generateS += secondsSince(t0);
    tot->ops += w.totalOps();
    ++tot->cells;

    std::string digest;
    std::uint64_t execCycles = 0, events = 0;
    std::vector<double> runS, tracedS, replayS;
    StreamSink sink;
    Replays coh;
    for (unsigned pass = 0; pass < passes; ++pass) {
        ++res->attempted;
        try {
            t0 = Clock::now();
            System sys(cfg, w);
            if (pass == 0)
                tot->buildS += secondsSince(t0);
            t0 = Clock::now();
            sys.run();
            runS.push_back(secondsSince(t0));
            if (pass == 0) {
                events = sys.eventQueue().executed();
                t0 = Clock::now();
                const Json stats = statsToJson(sys.stats());
                stats.dump();
                tot->statsJsonS += secondsSince(t0);
                digest = statsDigest(stats);
                execCycles = counterOf(stats, "sys.exec_cycles");
                tot->memOps += memOps(stats);
                for (const char *name : countersKept)
                    tot->counters[name] += counterOf(stats, name);
                const auto &hists = sys.stats().histograms();
                const auto it = hists.find("slc.coherence_list_len");
                if (it != hists.end()) {
                    tot->listLenTotal +=
                        it->second.mean() *
                        static_cast<double>(it->second.samples());
                    tot->listLenSamples += it->second.samples();
                }
            }
        } catch (const std::exception &e) {
            res->fail(id + ": untraced run threw: " + e.what());
            return;
        }

        sink.llc.clear();
        sink.noc.clear();
        trace::setCategories("llc,noc");
        trace::addSink(&sink);
        try {
            System sys(cfg, w);
            t0 = Clock::now();
            sys.run();
            tracedS.push_back(secondsSince(t0));
            if (statsDigest(sys.stats()) != digest)
                res->fail(id + ": tracing changed the simulated stats");
        } catch (const std::exception &e) {
            res->fail(id + ": traced run threw: " + e.what());
        }
        trace::removeSink(&sink);
        trace::setCategories("");

        coh = Replays{};
        replayCoherence(cfg, w, &coh);
        replayS.push_back(coh.coherenceS);
    }
    tot->events += events;
    tot->runS += percentile(runS, 0);
    tot->tracedS += percentile(tracedS, 0);
    tot->rep.coherenceS += percentile(replayS, 0);
    tot->rep.coherenceOps += coh.coherenceOps;
    tot->rep.cohEvents += coh.cohEvents;
    tot->rep.cohLlc += coh.cohLlc;
    tot->rep.cohMsgs += coh.cohMsgs;
    replayLlc(cfg, sink.llc, &tot->rep);
    replayNoc(cfg, sink.noc, &tot->rep);
    replayPrivCache(cfg, w, &tot->rep);
    replayKernel(events, &tot->rep);

    if (!crash)
        return;
    ++tot->crashCells;
    ++res->attempted;
    SystemConfig ccfg = cfg;
    ccfg.recordStores = true;
    try {
        System sys(ccfg, w);
        t0 = Clock::now();
        const auto image = sys.runUntilCrash(execCycles / 2);
        tot->crashRunS += secondsSince(t0);
        const PersistModel model = c.engine == "hwrp"
                                       ? PersistModel::RelaxedSfr
                                       : PersistModel::StrictTso;
        t0 = Clock::now();
        const CheckResult check =
            checkDurableState(image, sys.storeLog(), model, cfg.numCores);
        tot->checkS += secondsSince(t0);
        if (!check.ok) {
            if (crashSafeEngine(c.engine))
                res->fail(id + ": crash at 50% fails the check: " +
                          check.detail);
            else
                res->note(id + ": crash at 50% fails the check, which " +
                          c.engine + " does not guarantee (not counted)");
        }
    } catch (const std::exception &e) {
        res->fail(id + ": crash run threw: " + e.what());
    }
}

/** Geomean over benchmarks of tsoper / baseline cycles. */
double
tsoperNorm(const SweepRep &r)
{
    std::map<std::string, std::uint64_t> base, ts;
    for (std::size_t i = 0; i < r.cycles.size(); ++i) {
        if (r.engines[i] == "baseline")
            base[r.benches[i]] = r.cycles[i];
        else if (r.engines[i] == "tsoper")
            ts[r.benches[i]] = r.cycles[i];
    }
    double logSum = 0;
    unsigned n = 0;
    for (const auto &[bench, cycles] : ts) {
        const auto it = base.find(bench);
        if (it == base.end() || !it->second || !cycles)
            continue;
        logSum += std::log(static_cast<double>(cycles) /
                           static_cast<double>(it->second));
        ++n;
    }
    return n ? std::exp(logSum / n) : 0.0;
}

/** Campaign-layer metrics from one pooled repetition. */
void
addCampaignMetrics(const SweepRep &r, Result *res)
{
    const std::size_t n = r.cellWallS.size();
    double sum = 0;
    for (double s : r.cellWallS)
        sum += s;
    // The highest whole percentile with at least ten cells beyond it;
    // below 20 cells there is none and the median stands in.
    double pct = std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n)));
    if (pct < 50.0)
        pct = 50.0;
    const double tail = percentile(r.cellWallS, pct);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "campaign.cell_tail_s is p%.0f of %zu cells: %.4f s", pct,
                  n, tail);
    res->note(buf);
    res->add("campaign.cells", static_cast<double>(n), "count");
    res->add("campaign.expand_s", r.expandS, "s");
    res->add("campaign.report_s", r.reportS, "s");
    res->add("campaign.cell_p50_s", percentile(r.cellWallS, 50), "s");
    res->add("campaign.cell_tail_s", tail, "s");
    res->add("campaign.parallel_eff", sum / (r.wallS * r.jobs), "ratio");
    res->add("campaign.retries", r.retries, "count");
}

void
addTotals(const Totals &t, Result *res)
{
    const Replays &r = t.rep;
    const auto perNs = [](double s, std::uint64_t n) {
        return n ? s * 1e9 / static_cast<double>(n) : 0.0;
    };
    const double kernelNs = perNs(r.kernelS, r.kernelEvents);
    const double llcNs = perNs(r.llcS, r.llcN);
    const double routeNs = perNs(r.nocS, r.nocN);
    const double privNs = perNs(r.privS, r.privN);
    const auto cnt = [&t](const char *name) {
        const auto it = t.counters.find(name);
        return it == t.counters.end() ? 0 : it->second;
    };
    const auto substrateS = [&](std::uint64_t events, std::uint64_t llc,
                                std::uint64_t msgs, std::uint64_t priv) {
        return 1e-9 * (kernelNs * events + llcNs * llc + routeNs * msgs +
                       privNs * priv);
    };
    const double coreSelfS = t.runS - r.coherenceS;
    const double coherenceOwnS =
        r.coherenceS -
        substrateS(r.cohEvents, r.cohLlc, r.cohMsgs, r.coherenceOps);
    const double split =
        coreSelfS + coherenceOwnS +
        substrateS(t.events, cnt("llc.accesses"), cnt("noc.messages"),
                   t.memOps);

    res->add("sim.events", t.events, "count");
    res->add("sim.run_s", t.runS, "s");
    res->add("sim.ns_per_event", perNs(t.runS, t.events), "ns");
    res->add("sim.kernel_ns_per_event", kernelNs, "ns");
    res->add("sim.kernel_share", 1e-9 * kernelNs * t.events / t.runS,
             "fraction");
    res->add("sim.stats_json_s", t.statsJsonS, "s");
    res->add("sim.trace_overhead_frac", t.tracedS / t.runS - 1.0,
             "fraction");
    res->add("sim.unattributed_frac", 1.0 - split / t.runS, "fraction");
    res->add("workload.generate_s", t.generateS, "s");
    res->add("workload.ops", t.ops, "count");
    res->add("core.build_s", t.buildS, "s");
    res->add("core.self_s", coreSelfS, "s");
    res->add("core.crash_run_s", t.crashRunS, "s");
    res->add("core.check_s", t.checkS, "s");
    res->add("core.exec_cycles", cnt("sys.exec_cycles"), "cycles");
    res->add("core.sb_full_stalls", cnt("cpu.sb_full_stalls"), "count");
    res->add("core.ag_persisted", cnt("ag.persisted"), "count");
    res->add("core.agb_lines_buffered", cnt("agb.lines_buffered"),
             "count");
    res->add("core.agb_alloc_stall_cycles", cnt("agb.alloc_stall_cycles"),
             "cycles");
    res->add("coherence.replay_s", r.coherenceS, "s");
    res->add("coherence.ns_per_op", perNs(r.coherenceS, r.coherenceOps),
             "ns");
    res->add("coherence.misses", cnt("slc.misses") + cnt("mesi.misses"),
             "count");
    res->add("coherence.hits", cnt("slc.hits") + cnt("mesi.hits"), "count");
    res->add("coherence.dir_evictions", cnt("dir.evictions"), "count");
    res->add("coherence.mshr_full_stalls", cnt("mshr.full_stalls"),
             "count");
    res->add("coherence.list_len_mean",
             t.listLenSamples ? t.listLenTotal / t.listLenSamples : 0.0,
             "lines");
    res->add("mem.llc_access_ns", llcNs, "ns");
    res->add("mem.priv_cache_ns", privNs, "ns");
    res->add("mem.llc_accesses", cnt("llc.accesses"), "count");
    res->add("mem.nvm_writes", cnt("nvm.writes_done"), "count");
    res->add("mem.nvm_rank_wait_cycles", cnt("nvm.rank_wait_cycles"),
             "cycles");
    res->add("noc.route_ns", routeNs, "ns");
    res->add("noc.share",
             1e-9 * routeNs * cnt("noc.messages") / t.runS, "fraction");
    res->add("noc.messages", cnt("noc.messages"), "count");
    res->add("noc.link_wait_cycles", cnt("noc.link_wait_cycles"),
             "cycles");
}

/** The Fig. 11 headline (tsoper over baseline) for workloads whose own
 *  campaign does not hold both engines. */
double
fig11Norm(const Options &opt, Result *res)
{
    SweepWorkload w = *findWorkload("sweep_fig11")->sweep;
    w.engines = {"baseline", "tsoper"};
    return tsoperNorm(runSweepOnce("fig11-norm", w, opt, res));
}

} // namespace

Result
runLayers(const WorkloadDef &wd, const Options &opt)
{
    Result res;
    Totals tot;
    SweepRep campaignRep;
    double norm = 0;

    if (wd.cell) {
        const CellWorkload &c = *wd.cell;
        decomposeCell(c, opt.seed, 3, true, &tot, &res);
        // The campaign layer on a cell workload: the same cell once per
        // pool job, which is also a same-seed determinism check.
        const SweepWorkload one{{c.engine}, {c.bench}, c.scale, 1, {},
                                false, false};
        campaignRep = runCampaignOnce(
            wd.name,
            [&] {
                std::vector<campaign::RunRequest> cells;
                const campaign::RunRequest r =
                    campaign::expand(sweepSpec(wd.name, one, opt.seed))
                        .at(0);
                for (unsigned j = 0; j < poolJobs(); ++j) {
                    cells.push_back(r);
                    cells.back().id += "#" + std::to_string(j);
                }
                return cells;
            },
            opt, &res);
        for (const std::string &d : campaignRep.digests)
            if (d != campaignRep.digests.front())
                res.fail("campaign copies of the cell disagree");
        norm = fig11Norm(opt, &res);
    } else {
        const SweepWorkload &s = *wd.sweep;
        campaignRep = runSweepOnce(wd.name, s, opt, &res);
        norm = tsoperNorm(campaignRep);
        if (norm == 0)
            norm = fig11Norm(opt, &res);
        // Decompose every distinct timing cell of the grid.
        const std::vector<std::string> benches =
            s.benches.empty() ? benchmarkNames() : s.benches;
        for (const std::string &engine : s.engines)
            for (const std::string &bench : benches)
                for (unsigned i = 0; i < s.seedsPerCell; ++i)
                    decomposeCell({engine, bench, s.scale}, opt.seed + i, 1,
                                  engine == "tsoper" ||
                                      !s.crashFractions.empty(),
                                  &tot, &res);
    }
    addTotals(tot, &res);
    res.add("core.fig11_tsoper_norm", norm, "ratio");
    addCampaignMetrics(campaignRep, &res);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "decomposition cells: %u, crash cells timed: %llu",
                  tot.cells,
                  static_cast<unsigned long long>(tot.crashCells));
    res.note(buf);
    return res;
}

} // namespace perfbench
