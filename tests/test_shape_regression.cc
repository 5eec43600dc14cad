/**
 * @file
 * Reproduction-shape regression tests: the orderings the paper's
 * evaluation establishes must hold on representative benchmarks, so a
 * model change that silently breaks the headline result fails CI, not
 * just the bench output.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <set>
#include <string>

#include "campaign/builtin.hh"
#include "campaign/report.hh"
#include "campaign/run_request.hh"
#include "campaign/runner.hh"
#include "core/crash_checker.hh"
#include "coherence/slc.hh"
#include "core/system.hh"
#include "sim/stats_json.hh"
#include "workload/generators.hh"

using namespace tsoper;

namespace
{

double
gmeanOverhead(EngineKind engine, double scale = 0.1)
{
    const std::vector<std::string> benches = {"ocean_cp", "radix",
                                              "dedup", "bodytrack",
                                              "blackscholes"};
    double logSum = 0.0;
    for (const auto &bench : benches) {
        SystemConfig base = makeConfig(EngineKind::None);
        const Workload w = generateByName(bench, base.numCores, 1, scale);
        System baseline(base, w);
        const double baseCycles = static_cast<double>(baseline.run());
        SystemConfig cfg = makeConfig(engine);
        System sys(cfg, w);
        logSum += std::log(static_cast<double>(sys.run()) / baseCycles);
    }
    return std::exp(logSum / static_cast<double>(benches.size()));
}

} // namespace

TEST(ShapeRegression, Fig11SystemOrdering)
{
    const double hwrp = gmeanOverhead(EngineKind::HwRp);
    const double tsoper = gmeanOverhead(EngineKind::Tsoper);
    const double bsp = gmeanOverhead(EngineKind::Bsp);
    const double stw = gmeanOverhead(EngineKind::Stw);
    // The paper's ordering: HW-RP <= TSOPER < BSP < STW.
    EXPECT_LE(hwrp, tsoper * 1.02); // Allow 2% noise.
    EXPECT_LT(tsoper, bsp);
    EXPECT_LT(bsp, stw);
    // TSOPER's headline: strict TSO at near-relaxed cost.
    EXPECT_LT(tsoper, 1.25);
    // And STW shows why the machinery matters.
    EXPECT_GT(stw, 1.5);
}

TEST(ShapeRegression, Fig12SteppingStones)
{
    const double bsp = gmeanOverhead(EngineKind::Bsp);
    const double bspSlc = gmeanOverhead(EngineKind::BspSlc);
    const double bspSlcAgb = gmeanOverhead(EngineKind::BspSlcAgb);
    const double tsoper = gmeanOverhead(EngineKind::Tsoper);
    // Each innovation helps: BSP > +SLC > (+AGB ~ TSOPER).
    EXPECT_GT(bsp, bspSlc);
    EXPECT_GT(bspSlc * 1.02, bspSlcAgb);
    EXPECT_NEAR(bspSlcAgb, tsoper, 0.1);
}

TEST(ShapeRegression, Fig13AgSizesSmall)
{
    SystemConfig cfg = makeConfig(EngineKind::Tsoper);
    cfg.agMaxLines = 512;
    cfg.agbSliceLines = 1024;
    Histogram merged;
    for (const char *bench : {"ocean_cp", "dedup", "canneal"}) {
        const Workload w = generateByName(bench, cfg.numCores, 1, 0.1);
        System sys(cfg, w);
        sys.run();
        for (const auto &[v, n] :
             sys.stats().histogram("ag.size").buckets())
            merged.add(v, n);
    }
    // Paper: ~90% under 10 lines, <1% above 80.
    EXPECT_GT(merged.cumulativeAt(10), 0.80);
    EXPECT_LT(1.0 - merged.cumulativeAt(79), 0.02);
}

TEST(ShapeRegression, Fig14HwRpPersistsMoreOnLockHeavyApps)
{
    for (const char *bench : {"dedup", "x264"}) {
        SystemConfig rp = makeConfig(EngineKind::HwRp);
        const Workload w = generateByName(bench, rp.numCores, 1, 0.1);
        System hwrp(rp, w);
        hwrp.run();
        SystemConfig ts = makeConfig(EngineKind::Tsoper);
        System tsoper(ts, w);
        tsoper.run();
        EXPECT_GT(hwrp.stats().get("traffic.persist_wb"),
                  tsoper.stats().get("traffic.persist_wb"))
            << bench;
    }
}

TEST(ShapeRegression, StatsJsonByteIdenticalForFixedSeed)
{
    // The event kernel's tie-break-by-insertion-sequence guarantee
    // must surface all the way up: a fixed-seed run serializes to the
    // exact same --stats-json bytes every time.  This is the
    // regression gate for kernel swaps — any reordering inside the
    // calendar queue shows up here as a diff, not as silent drift in
    // the crash-state audits.
    auto statsText = [](EngineKind engine) {
        SystemConfig cfg = makeConfig(engine);
        const Workload w =
            generateByName("ocean_cp", cfg.numCores, 7, 0.05);
        System sys(cfg, w);
        sys.run();
        return statsJsonText(sys.stats());
    };
    for (EngineKind engine :
         {EngineKind::Tsoper, EngineKind::Bsp, EngineKind::HwRp}) {
        const std::string first = statsText(engine);
        const std::string second = statsText(engine);
        EXPECT_EQ(first, second) << toString(engine);
        EXPECT_NE(first.find("\"histograms\""), std::string::npos);
    }
}

namespace
{

/** 64-bit FNV-1a over the bytes of @p text. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

struct PinnedDigest
{
    const char *engine;
    const char *bench;
    std::uint64_t digest;
};

/**
 * FNV-1a digests of statsJsonText for every engine name on radix and
 * ocean_cp at seed 3, scale 0.3, 8 cores — the configuration
 * tsoper_sim builds for `--engine=E --bench=B --seed=3 --scale=0.3`.
 * A change that is meant to keep simulated behaviour (a data-structure
 * or completion-plumbing refactor) must leave every entry unchanged.
 * A change that moves behaviour on purpose regenerates the table from
 * this test's failure output and explains the diff in CHANGES.md.
 */
const PinnedDigest kPinnedDigests[] = {
    {"baseline", "radix", 0x07c90705679a677bull},
    {"baseline-mesi", "radix", 0x42cdc6e36d9de392ull},
    {"hwrp", "radix", 0x84da1b365bad16aeull},
    {"bsp", "radix", 0x83d8f823d3561abcull},
    {"bsp-slc", "radix", 0x3e0dd78d23f92f64ull},
    {"bsp-slc-agb", "radix", 0x1bc42a7c059de297ull},
    {"stw", "radix", 0xb55fbaea47239a55ull},
    {"tsoper", "radix", 0xbd622d4351bc1e62ull},
    {"baseline", "ocean_cp", 0xcae7813b1874bd27ull},
    {"baseline-mesi", "ocean_cp", 0xf425a270060b2a87ull},
    {"hwrp", "ocean_cp", 0xfe6d0592e0a3cb55ull},
    {"bsp", "ocean_cp", 0x1ac1c9bb71eec068ull},
    {"bsp-slc", "ocean_cp", 0x1966ca691ac45017ull},
    {"bsp-slc-agb", "ocean_cp", 0x7666360cd8b82520ull},
    {"stw", "ocean_cp", 0x5e749162fda49fc5ull},
    {"tsoper", "ocean_cp", 0x6464e9fadb46415bull},
};

/**
 * Run every engine name on each of @p benches (seed 3, scale 0.3, the
 * tsoper_sim configuration), with @p shrink (a void(SystemConfig &,
 * const std::string &bench) callable) applied to the resolved config,
 * and compare each run's stats digest against @p table.  @p inspect
 * (void(engine, bench, const StatsRegistry &)) sees every run's stats.
 * On a mismatch the failure message carries the regenerated table.
 */
template <typename Shrink, typename Inspect>
void
checkPinnedDigests(std::initializer_list<const char *> benches,
                   const PinnedDigest *table, std::size_t tableSize,
                   Shrink shrink, Inspect inspect)
{
    std::string regenerated;
    bool allMatch = true;
    std::size_t checked = 0;
    for (const char *bench : benches) {
        for (const std::string &engine : engineNames()) {
            campaign::RunRequest req;
            req.engine = engine;
            req.bench = bench;
            req.seed = 3;
            req.scale = 0.3;
            SystemConfig cfg;
            ASSERT_TRUE(campaign::resolveConfig(req, &cfg, nullptr));
            shrink(cfg, req.bench);
            const Workload w = generateByName(req.bench, cfg.numCores,
                                              req.seed, req.scale);
            System sys(cfg, w);
            sys.run();
            inspect(engine, req.bench, sys.stats());
            const std::uint64_t got = fnv1a(statsJsonText(sys.stats()));
            char line[128];
            std::snprintf(line, sizeof line,
                          "    {\"%s\", \"%s\", 0x%016" PRIx64 "ull},\n",
                          engine.c_str(), bench, got);
            regenerated += line;
            const PinnedDigest *pinned = nullptr;
            for (std::size_t i = 0; i < tableSize; ++i) {
                if (engine == table[i].engine &&
                    std::string(bench) == table[i].bench)
                    pinned = &table[i];
            }
            if (!pinned) {
                allMatch = false;
                ADD_FAILURE() << engine << "/" << bench
                              << " has no pinned digest";
                continue;
            }
            ++checked;
            if (pinned->digest != got) {
                allMatch = false;
                ADD_FAILURE() << engine << "/" << bench
                              << ": stats digest moved";
            }
        }
    }
    EXPECT_EQ(checked, tableSize);
    EXPECT_TRUE(allMatch) << "regenerated digest table:\n"
                          << regenerated;
}

/**
 * The same pin at a shrunken geometry that drives protocol paths the
 * default-geometry table above misses (none of its runs stalls on a
 * full MSHR; radix there has no upgrades and no eviction-buffer use):
 * a 1-register MSHR (full-stall retries), 64 directory entries per
 * bank (directory evictions and entry teardown), and tiny private
 * caches (16 sets on canneal, 4 on radix: capacity victims, upgrades
 * and SLC eviction-buffer residency).
 */
const PinnedDigest kSmallGeometryDigests[] = {
    {"baseline", "canneal", 0xfd26f25b9b076bbeull},
    {"baseline-mesi", "canneal", 0x3d91d6de60193cf4ull},
    {"hwrp", "canneal", 0x9863da284bfdc230ull},
    {"bsp", "canneal", 0x0bbce198080a9b55ull},
    {"bsp-slc", "canneal", 0xfffedcdaf88605eaull},
    {"bsp-slc-agb", "canneal", 0x24c5646945bbe864ull},
    {"stw", "canneal", 0x2a8feb5401f2bba4ull},
    {"tsoper", "canneal", 0x9b7c765ed25025a5ull},
    {"baseline", "radix", 0x7ef6dd9bca78aff2ull},
    {"baseline-mesi", "radix", 0xf202576acf5f3b8dull},
    {"hwrp", "radix", 0x578a3316901b50c1ull},
    {"bsp", "radix", 0xf2da9454fc51c56bull},
    {"bsp-slc", "radix", 0x6099fa4e4438940dull},
    {"bsp-slc-agb", "radix", 0x1877511ea92c6607ull},
    {"stw", "radix", 0xda117cef4bc06d21ull},
    {"tsoper", "radix", 0xda566970e08eb874ull},
};

void
shrinkGeometry(SystemConfig &cfg, const std::string &bench)
{
    cfg.privSets = bench == "canneal" ? 16 : 4;
    cfg.mshrEntries = 1;
    cfg.dirEntriesPerBank = 64;
}

} // namespace

TEST(ShapeRegression, StatsJsonMatchesPinnedDigests)
{
    // Unlike StatsJsonByteIdenticalForFixedSeed, which compares two
    // runs of the same binary, this pins the bytes across commits.
    checkPinnedDigests(
        {"radix", "ocean_cp"}, kPinnedDigests, std::size(kPinnedDigests),
        [](SystemConfig &, const std::string &) {},
        [](const std::string &, const std::string &,
           const StatsRegistry &) {});
}

TEST(ShapeRegression, SmallGeometryStatsJsonMatchesPinnedDigests)
{
    // The pins only cover the rare paths if the runs reach them: every
    // engine must stall on a full MSHR, evict directory entries and
    // upgrade on canneal, and the SLC engines that keep evicted dirty
    // versions linked (stw, tsoper) must use the eviction buffer on
    // radix.
    checkPinnedDigests(
        {"canneal", "radix"}, kSmallGeometryDigests,
        std::size(kSmallGeometryDigests), shrinkGeometry,
        [](const std::string &engine, const std::string &bench,
           const StatsRegistry &stats) {
            if (bench == "canneal") {
                EXPECT_GT(stats.get("mshr.full_stalls"), 0u) << engine;
                EXPECT_GT(stats.get("dir.evictions"), 0u) << engine;
                EXPECT_GT(stats.get("slc.upgrades") +
                              stats.get("mesi.upgrades"),
                          0u)
                    << engine;
            }
            if (bench == "radix" && (engine == "stw" || engine == "tsoper")) {
                const auto h =
                    stats.histograms().find("slc.evict_buffer_occupancy");
                ASSERT_NE(h, stats.histograms().end()) << engine;
                EXPECT_GT(h->second.samples(), 0u) << engine;
            }
        });
}

TEST(ShapeRegression, SmallGeometrySlcListCountersMatchListWalk)
{
    // listLength()/validListLength() are counters kept by the list
    // surgery.  Stop each SLC run of the small-geometry table at a few
    // points, and at its end, and walk every touched line's list.
    const auto checkLists = [](SlcProtocol &slc,
                               const std::vector<LineAddr> &lines,
                               unsigned cores, const std::string &where) {
        for (LineAddr line : lines) {
            unsigned holders = 0;
            CoreId head = invalidCore;
            for (CoreId c = 0; c < static_cast<CoreId>(cores); ++c) {
                if (!slc.hasNode(c, line))
                    continue;
                ++holders;
                if (slc.nodeBwd(c, line) == invalidCore) {
                    ASSERT_EQ(head, invalidCore) << where << ": two heads";
                    head = c;
                }
            }
            unsigned nodes = 0;
            unsigned valid = 0;
            for (CoreId c = head; c != invalidCore; c = slc.nodeFwd(c, line)) {
                ASSERT_LT(nodes, cores) << where << ": cyclic list";
                ++nodes;
                valid += slc.nodeValid(c, line) ? 1 : 0;
            }
            ASSERT_EQ(nodes, holders) << where << ": unlinked node";
            ASSERT_EQ(slc.listLength(line), nodes)
                << where << " line 0x" << std::hex << line;
            ASSERT_EQ(slc.validListLength(line), valid)
                << where << " line 0x" << std::hex << line;
        }
    };
    for (const char *bench : {"canneal", "radix"}) {
        for (const std::string &engine : engineNames()) {
            campaign::RunRequest req;
            req.engine = engine;
            req.bench = bench;
            SystemConfig cfg;
            ASSERT_TRUE(campaign::resolveConfig(req, &cfg, nullptr));
            shrinkGeometry(cfg, req.bench);
            const Workload w =
                generateByName(req.bench, cfg.numCores, 3, 0.3);
            std::vector<LineAddr> lines;
            for (const Trace &trace : w.perCore)
                for (const TraceOp &op : trace)
                    lines.push_back(lineOf(op.addr));
            std::sort(lines.begin(), lines.end());
            lines.erase(std::unique(lines.begin(), lines.end()),
                        lines.end());

            System full(cfg, w);
            if (!full.slc())
                continue; // MESI
            const Cycle end = full.run();
            checkLists(*full.slc(), lines, cfg.numCores,
                       engine + "/" + bench + " at the end");
            for (double f : {0.2, 0.4, 0.6, 0.8}) {
                System sys(cfg, w);
                sys.runUntilCrash(
                    static_cast<Cycle>(static_cast<double>(end) * f));
                checkLists(*sys.slc(), lines, cfg.numCores,
                           engine + "/" + bench + " at " +
                               std::to_string(f));
            }
        }
    }
}

class CoreCountMatrix : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CoreCountMatrix, TsoperScalesAcrossCoreCounts)
{
    SystemConfig cfg = makeConfig(EngineKind::Tsoper);
    cfg.numCores = GetParam();
    if (cfg.numCores > 8) {
        cfg.meshCols = 6;
        cfg.meshRows = 4;
    }
    cfg.recordStores = true;
    const Workload w =
        generateByName("canneal", cfg.numCores, 3, 0.04);
    System sys(cfg, w);
    EXPECT_GT(sys.run(), 0u);
    const auto res = checkDurableState(sys.durableImage(),
                                       sys.storeLog(),
                                       PersistModel::StrictTso,
                                       cfg.numCores);
    EXPECT_TRUE(res.ok) << res.detail;
}

INSTANTIATE_TEST_SUITE_P(Cores, CoreCountMatrix,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u),
                         [](const auto &info) {
                             return std::to_string(info.param) + "cores";
                         });

// --- Campaign reports pinned across commits --------------------------

namespace
{

/** Run built-in campaign @p name in process, as tsoper_campaign does. */
campaign::CampaignReport
runBuiltin(const std::string &name, unsigned jobs)
{
    const campaign::BuiltinCampaign *c = campaign::findBuiltinCampaign(name);
    EXPECT_NE(c, nullptr) << name;
    if (!c)
        return {};
    campaign::RunnerOptions opt;
    opt.jobs = jobs;
    opt.timeout = std::chrono::milliseconds(c->spec.timeoutMs);
    opt.retries = c->spec.retries;
    return campaign::runCampaign(name, campaign::expand(c->spec), opt);
}

/** FNV-1a of the canonical report: `tsoper_campaign --canonical-out`
 *  writes these bytes plus a trailing newline. */
std::uint64_t
canonicalDigest(const campaign::CampaignReport &report)
{
    return fnv1a(campaign::canonicalReportJson(report).dump(2));
}

} // namespace

TEST(ShapeRegression, CanonicalReportsMatchPinnedDigests)
{
    // campaign_determinism compares --jobs=1 with --jobs=4 within one
    // build; these digests pin the report bytes across commits.  A
    // change that moves them on purpose regenerates them from this
    // test's failure output and explains the diff in CHANGES.md.
    const struct
    {
        const char *campaign;
        std::uint64_t digest;
    } pins[] = {
        {"mini", 0xf80ec7bc01297598ull},
        {"crash-matrix", 0x2c9aefe124177766ull},
    };
    for (const auto &pin : pins) {
        const std::uint64_t got = canonicalDigest(runBuiltin(pin.campaign, 4));
        EXPECT_EQ(got, pin.digest)
            << pin.campaign << ": got 0x" << std::hex << got;
    }
}

TEST(ShapeRegression, CrashMatrixFullFailsExactlyTheKnownCells)
{
    // bsp and bsp-slc are judged under the strict TSO contract, which
    // they do not promise (docs/campaigns.md); these are the crash
    // points where that shows.  A change that opens or closes one of
    // these windows must update this set and say why.
    const std::set<std::string> expectedFailures = {
        "bsp/radix/x0.1/s1/c0.1",        "bsp/radix/x0.1/s1/c0.5",
        "bsp/dedup/x0.1/s1/c0.1",        "bsp/dedup/x0.1/s1/c0.5",
        "bsp/dedup/x0.1/s1/c0.75",       "bsp/dedup/x0.1/s1/c0.9",
        "bsp-slc/radix/x0.1/s1/c0.1",    "bsp-slc/radix/x0.1/s1/c0.5",
        "bsp-slc/radix/x0.1/s1/c0.9",    "bsp-slc/dedup/x0.1/s1/c0.1",
        "bsp-slc/dedup/x0.1/s1/c0.25",   "bsp-slc/dedup/x0.1/s1/c0.5",
        "bsp-slc/dedup/x0.1/s1/c0.75",   "bsp-slc/dedup/x0.1/s1/c0.9",
        "bsp-slc/ocean_cp/x0.1/s1/c0.5",
    };
    const campaign::CampaignReport report =
        runBuiltin("crash-matrix-full", 4);
    ASSERT_EQ(report.cells.size(), 90u);
    std::set<std::string> failed;
    for (const campaign::CellReport &cell : report.cells) {
        if (cell.result.status == campaign::RunStatus::CheckFailed)
            failed.insert(cell.request.id);
        else
            EXPECT_EQ(cell.result.status, campaign::RunStatus::Ok)
                << cell.request.id << ": " << cell.result.detail;
    }
    EXPECT_EQ(failed, expectedFailures);
    EXPECT_EQ(report.count(campaign::RunStatus::Ok), 75u);
    const std::uint64_t got = canonicalDigest(report);
    EXPECT_EQ(got, 0x50c64214de274eecull) << "got 0x" << std::hex << got;
}
