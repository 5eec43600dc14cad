/** @file Tests for the campaign subsystem: spec expansion, the
 *  runner's job threads, timeout/retry classification, runOne, report
 *  aggregation and the journal. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "campaign/builtin.hh"
#include "campaign/journal.hh"
#include "campaign/report.hh"
#include "campaign/runner.hh"
#include "campaign/spec.hh"

using namespace tsoper;
using namespace tsoper::campaign;

// --- Spec expansion ---------------------------------------------------

namespace
{

CampaignSpec
smallSpec()
{
    CampaignSpec spec;
    spec.name = "grid";
    spec.engines = {"tsoper", "stw"};
    spec.benches = {"radix", "dedup"};
    spec.scales = {0.1};
    spec.seeds = {1, 2};
    spec.crashFractions = {0.25, 0.75};
    spec.check = true;
    return spec;
}

} // namespace

TEST(CampaignSpec, ExpansionIsDeterministicAndComplete)
{
    const CampaignSpec spec = smallSpec();
    EXPECT_EQ(spec.cellCount(), 16u);

    const std::vector<RunRequest> a = expand(spec);
    const std::vector<RunRequest> b = expand(spec);
    ASSERT_EQ(a.size(), 16u);
    EXPECT_EQ(a, b); // same spec -> byte-identical manifests

    // Unique, stable ids; engine-major order.
    std::set<std::string> ids;
    for (const RunRequest &r : a)
        ids.insert(r.id);
    EXPECT_EQ(ids.size(), a.size());
    EXPECT_EQ(a.front().id, "tsoper/radix/x0.1/s1/c0.25");
    EXPECT_EQ(a.back().id, "stw/dedup/x0.1/s2/c0.75");
}

TEST(CampaignSpec, SeedsLandInManifests)
{
    CampaignSpec spec = smallSpec();
    spec.crashFractions.clear();
    const std::vector<RunRequest> cells = expand(spec);
    ASSERT_EQ(cells.size(), 8u);
    for (const RunRequest &r : cells) {
        EXPECT_TRUE(r.seed == 1 || r.seed == 2) << r.id;
        EXPECT_EQ(r.crashAt, 0.0);
        EXPECT_TRUE(r.check);
    }
}

TEST(CampaignSpec, Validation)
{
    EXPECT_EQ(validateSpec(smallSpec()), "");

    CampaignSpec bad = smallSpec();
    bad.engines = {"warp-drive"};
    EXPECT_NE(validateSpec(bad).find("warp-drive"), std::string::npos);

    bad = smallSpec();
    bad.benches = {"pacman"};
    EXPECT_NE(validateSpec(bad).find("pacman"), std::string::npos);

    bad = smallSpec();
    bad.crashFractions = {1.5};
    EXPECT_NE(validateSpec(bad), "");

    bad = smallSpec();
    bad.scales = {0.0};
    EXPECT_NE(validateSpec(bad), "");
}

TEST(CampaignSpec, ParsesTextFormat)
{
    const std::string text = R"(
# nightly grid
name            = nightly
engines         = tsoper, stw
benches         = radix, dedup
scales          = 0.1, 0.5
seeds           = 1, 2, 3
crash-fractions = 0.5
check           = true
cores           = 4
timeout-ms      = 9000
retries         = 2
)";
    CampaignSpec spec;
    std::string err;
    ASSERT_TRUE(parseSpecText(text, &spec, &err)) << err;
    EXPECT_EQ(spec.name, "nightly");
    EXPECT_EQ(spec.engines,
              (std::vector<std::string>{"tsoper", "stw"}));
    EXPECT_EQ(spec.benches, (std::vector<std::string>{"radix", "dedup"}));
    EXPECT_EQ(spec.scales, (std::vector<double>{0.1, 0.5}));
    EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(spec.crashFractions, (std::vector<double>{0.5}));
    EXPECT_TRUE(spec.check);
    EXPECT_EQ(spec.cores, 4u);
    EXPECT_EQ(spec.timeoutMs, 9000u);
    EXPECT_EQ(spec.retries, 2u);
    EXPECT_EQ(validateSpec(spec), "");
}

TEST(CampaignSpec, ParseErrorsCarryLineNumbers)
{
    CampaignSpec spec;
    std::string err;
    EXPECT_FALSE(parseSpecText("engines tsoper", &spec, &err));
    EXPECT_NE(err.find("line 1"), std::string::npos);
    EXPECT_FALSE(parseSpecText("\nwibble = 3", &spec, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos);
    EXPECT_FALSE(parseSpecText("seeds = one", &spec, &err));
    EXPECT_FALSE(parseSpecText("check = maybe", &spec, &err));
    EXPECT_FALSE(parseSpecText("threads = 2", &spec, &err));
    EXPECT_NE(err.find("unknown key \"threads\""), std::string::npos);
    // Numbers parse strictly: no sign, nothing narrowed, finite only.
    EXPECT_FALSE(parseSpecText("seeds = -1", &spec, &err));
    EXPECT_NE(err.find("bad seed \"-1\""), std::string::npos) << err;
    EXPECT_FALSE(parseSpecText("\ncores = 4294967297", &spec, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_FALSE(parseSpecText("scales = inf", &spec, &err));
    EXPECT_NE(err.find("bad scale \"inf\""), std::string::npos) << err;
}

TEST(CampaignSpec, BuiltinCampaignsAreValid)
{
    ASSERT_FALSE(builtinCampaigns().empty());
    for (const BuiltinCampaign &c : builtinCampaigns()) {
        EXPECT_EQ(validateSpec(c.spec), "") << c.name;
        EXPECT_GE(c.spec.cellCount(), 4u) << c.name;
    }
    EXPECT_NE(findBuiltinCampaign("crash-matrix"), nullptr);
    EXPECT_NE(findBuiltinCampaign("mini"), nullptr);
    EXPECT_EQ(findBuiltinCampaign("nope"), nullptr);
}

// --- Timeout / retry classification ----------------------------------

namespace
{

RunRequest
fakeRequest(const std::string &id)
{
    RunRequest r;
    r.id = id;
    return r;
}

} // namespace

TEST(Runner, HungCellClassifiesAsTimeoutAfterRetry)
{
    std::atomic<int> attempts{0};
    RunnerOptions opt;
    opt.timeout = std::chrono::milliseconds(25);
    opt.retries = 1;
    opt.backoffBaseMs = 0;
    opt.cellFn = [&](const RunRequest &) {
        attempts.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        RunResult res;
        res.status = RunStatus::Ok;
        return res;
    };

    const CellReport cell = runCell(fakeRequest("hung"), opt);
    EXPECT_EQ(cell.result.status, RunStatus::Timeout);
    EXPECT_EQ(cell.attempts, 2u);
    EXPECT_EQ(attempts.load(), 2);
    EXPECT_NE(cell.result.detail.find("budget"), std::string::npos);
    // Out of retries with a transient verdict -> quarantined, and the
    // full attempt history is preserved.
    EXPECT_TRUE(cell.quarantined);
    ASSERT_EQ(cell.attemptLog.size(), 2u);
    EXPECT_EQ(cell.attemptLog[0].status, RunStatus::Timeout);
    EXPECT_EQ(cell.attemptLog[1].status, RunStatus::Timeout);
    // Orphaned attempt threads outlive runCell; let them drain before
    // their atomics go out of scope.
    std::this_thread::sleep_for(std::chrono::milliseconds(900));
}

TEST(Runner, FlakyCellSucceedsOnRetry)
{
    std::atomic<int> attempts{0};
    RunnerOptions opt;
    opt.timeout = std::chrono::milliseconds(5000);
    opt.retries = 1;
    opt.backoffBaseMs = 0;
    opt.cellFn = [&](const RunRequest &) {
        RunResult res;
        if (attempts.fetch_add(1) == 0) {
            res.status = RunStatus::Crashed;
            res.detail = "transient";
        } else {
            res.status = RunStatus::Ok;
        }
        return res;
    };

    const CellReport cell = runCell(fakeRequest("flaky"), opt);
    EXPECT_EQ(cell.result.status, RunStatus::Ok);
    EXPECT_EQ(cell.attempts, 2u);
    EXPECT_FALSE(cell.quarantined);
    ASSERT_EQ(cell.attemptLog.size(), 2u);
    EXPECT_EQ(cell.attemptLog[0].status, RunStatus::Crashed);
    EXPECT_EQ(cell.attemptLog[0].detail, "transient");
    EXPECT_EQ(cell.attemptLog[1].status, RunStatus::Ok);
}

TEST(Runner, RetriesBackOffExponentially)
{
    std::atomic<int> attempts{0};
    RunnerOptions opt;
    opt.timeout = std::chrono::milliseconds(5000);
    opt.retries = 2;
    opt.backoffBaseMs = 40;
    opt.cellFn = [&](const RunRequest &) {
        attempts.fetch_add(1);
        RunResult res;
        res.status = RunStatus::Crashed;
        return res;
    };

    const auto start = std::chrono::steady_clock::now();
    const CellReport cell = runCell(fakeRequest("sick"), opt);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    EXPECT_EQ(attempts.load(), 3);
    EXPECT_TRUE(cell.quarantined);
    // Backoff before attempt 2 is 40 ms, before attempt 3 is 80 ms.
    EXPECT_GE(elapsed.count(), 120);
}

TEST(Runner, DeterministicVerdictsAreNotRetried)
{
    std::atomic<int> attempts{0};
    RunnerOptions opt;
    opt.timeout = std::chrono::milliseconds(5000);
    opt.retries = 3;
    opt.cellFn = [&](const RunRequest &) {
        attempts.fetch_add(1);
        RunResult res;
        res.status = RunStatus::CheckFailed;
        return res;
    };

    const CellReport cell = runCell(fakeRequest("torn"), opt);
    EXPECT_EQ(cell.result.status, RunStatus::CheckFailed);
    EXPECT_EQ(cell.attempts, 1u);
    EXPECT_EQ(attempts.load(), 1);
}

TEST(Runner, CampaignAggregatesInExpansionOrder)
{
    std::vector<RunRequest> cells;
    for (int i = 0; i < 24; ++i)
        cells.push_back(fakeRequest("cell" + std::to_string(i)));

    RunnerOptions opt;
    opt.jobs = 4;
    opt.timeout = std::chrono::milliseconds(5000);
    opt.backoffBaseMs = 0;
    opt.cellFn = [](const RunRequest &r) {
        // Finish out of order on purpose.
        if (r.id == "cell0")
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
        RunResult res;
        res.status = r.id == "cell7" ? RunStatus::Crashed
                                     : RunStatus::Ok;
        res.detail = r.id;
        return res;
    };

    const CampaignReport report = runCampaign("order", cells, opt);
    ASSERT_EQ(report.cells.size(), 24u);
    for (int i = 0; i < 24; ++i)
        EXPECT_EQ(report.cells[i].request.id,
                  "cell" + std::to_string(i));
    EXPECT_EQ(report.count(RunStatus::Ok), 23u);
    // cell7 crashes on every attempt, so it lands in quarantine and
    // stays out of the per-status totals.
    EXPECT_EQ(report.count(RunStatus::Crashed), 0u);
    EXPECT_EQ(report.quarantinedCount(), 1u);
    EXPECT_TRUE(report.cells[7].quarantined);
    EXPECT_FALSE(report.allOk());
    EXPECT_NE(report.summary().find("23 ok"), std::string::npos);
    EXPECT_NE(report.summary().find("1 quarantined"), std::string::npos);
}

TEST(Runner, OrphanedAttemptThreadsAreCounted)
{
    const unsigned before = liveOrphanCount();

    std::atomic<bool> release{false};
    RunnerOptions opt;
    opt.timeout = std::chrono::milliseconds(25);
    opt.retries = 0;
    opt.backoffBaseMs = 0;
    opt.cellFn = [&](const RunRequest &) {
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        RunResult res;
        res.status = RunStatus::Ok;
        return res;
    };

    const CampaignReport report =
        runCampaign("orphans", {fakeRequest("stuck")}, opt);
    EXPECT_EQ(report.cells[0].result.status, RunStatus::Timeout);
    EXPECT_GE(report.orphanedThreads, before + 1);
    EXPECT_NE(report.summary().find("orphaned attempt thread"),
              std::string::npos);

    // Once the orphan finishes it un-counts itself.
    release.store(true);
    for (int i = 0; i < 200 && liveOrphanCount() > before; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(liveOrphanCount(), before);
}

// --- runOne on the real simulator ------------------------------------

TEST(RunOne, UnknownEngineAndBenchAreBadRequests)
{
    RunRequest r;
    r.engine = "warp-drive";
    RunResult res = runOne(r);
    EXPECT_EQ(res.status, RunStatus::BadRequest);
    EXPECT_NE(res.detail.find("warp-drive"), std::string::npos);

    r = RunRequest{};
    r.bench = "pacman";
    res = runOne(r);
    EXPECT_EQ(res.status, RunStatus::BadRequest);
    EXPECT_NE(res.detail.find("pacman"), std::string::npos);
}

TEST(RunOne, TinyAuditedRunProducesStats)
{
    RunRequest r;
    r.id = "tsoper/dedup/x0.05/s1";
    r.bench = "dedup";
    r.scale = 0.05;
    r.check = true;
    const RunResult res = runOne(r);
    ASSERT_EQ(res.status, RunStatus::Ok) << res.detail;
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(res.ops, 0u);
    EXPECT_TRUE(res.audited);
    EXPECT_GT(res.durableWords, 0u);
    ASSERT_TRUE(res.stats.isObject());
    EXPECT_GT(res.stats["counters"].size(), 0u);

    // Determinism: the same request yields byte-identical stats.
    const RunResult again = runOne(r);
    EXPECT_EQ(again.stats.dump(), res.stats.dump());
    EXPECT_EQ(again.cycles, res.cycles);
}

TEST(RunOne, CrashCellAuditsDurableState)
{
    RunRequest r;
    r.engine = "stw";
    r.bench = "dedup";
    r.scale = 0.05;
    r.crashAt = 0.5;
    r.check = true;
    const RunResult res = runOne(r);
    ASSERT_EQ(res.status, RunStatus::Ok) << res.detail;
    EXPECT_GT(res.crashCycle, 0u);
    EXPECT_TRUE(res.audited);
    EXPECT_FALSE(res.recoverySummary.empty());
}

// --- Crash groups ----------------------------------------------------

namespace
{

/** Crash cells of @p engines on dedup: 3 crash fractions x 2 seeds per
 *  engine, so 2 crash groups per engine. */
std::vector<RunRequest>
crashCells(std::vector<std::string> engines)
{
    CampaignSpec spec;
    spec.name = "timing";
    spec.engines = std::move(engines);
    spec.benches = {"dedup"};
    spec.scales = {0.05};
    spec.seeds = {1, 2};
    spec.crashFractions = {0.25, 0.5, 0.75};
    spec.check = true;
    return expand(spec);
}

/** The crash-matrix-full cells of @p engine, one group per bench. */
std::vector<std::vector<RunRequest>>
crashMatrixFullGroups(const std::string &engine)
{
    CampaignSpec spec = findBuiltinCampaign("crash-matrix-full")->spec;
    spec.engines = {engine};
    std::vector<std::vector<RunRequest>> groups;
    for (const RunRequest &r : expand(spec)) {
        if (groups.empty() ||
            crashGroupKey(groups.back().front()) != crashGroupKey(r))
            groups.emplace_back();
        groups.back().push_back(r);
    }
    return groups;
}

} // namespace

class CrashGroupEngine : public ::testing::TestWithParam<std::string>
{
};

// Every field of a grouped cell's result, stats bytes included, is
// the one runOne gives the cell alone — check-failed points too.
TEST_P(CrashGroupEngine, EqualsSeparateRuns)
{
    unsigned points = 0, checkFailed = 0;
    for (std::vector<RunRequest> group : crashMatrixFullGroups(GetParam())) {
        ASSERT_EQ(group.size(), 5u);
        // Out of crash order on purpose: results follow the request
        // order, whatever order the group simulates in.
        std::swap(group.front(), group.back());
        const std::vector<RunResult> grouped = runCrashGroup(group);
        ASSERT_EQ(grouped.size(), group.size());
        for (std::size_t i = 0; i < group.size(); ++i) {
            const RunResult alone = runOne(group[i]);
            const RunResult &res = grouped[i];
            const std::string &id = group[i].id;
            EXPECT_EQ(res.status, alone.status) << id;
            EXPECT_EQ(res.detail, alone.detail) << id;
            EXPECT_EQ(res.cycles, alone.cycles) << id;
            EXPECT_EQ(res.drainCycles, alone.drainCycles) << id;
            EXPECT_EQ(res.crashCycle, alone.crashCycle) << id;
            EXPECT_EQ(res.recoverySummary, alone.recoverySummary) << id;
            EXPECT_EQ(res.stats.dump(), alone.stats.dump()) << id;
            EXPECT_EQ(runResultToJson(res).dump(),
                      runResultToJson(alone).dump())
                << id;
            ++points;
            checkFailed += alone.status == RunStatus::CheckFailed;
        }
    }
    EXPECT_EQ(points, 15u);
    // The strict audit fails bsp and bsp-slc at some of these points
    // (ShapeRegression.CrashMatrixFullFailsExactlyTheKnownCells).
    if (GetParam() == "bsp" || GetParam() == "bsp-slc")
        EXPECT_GT(checkFailed, 0u);
    else
        EXPECT_EQ(checkFailed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    CrashGroup, CrashGroupEngine,
    ::testing::Values("stw", "bsp", "bsp-slc", "bsp-slc-agb", "hwrp",
                      "tsoper"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

TEST(CrashGroup, AuditedCellsMatchTheirSoloRuns)
{
    std::vector<RunRequest> group = crashCells({"tsoper"});
    group.resize(3); // seed 1: crash at 25, 50 and 75 %
    for (RunRequest &r : group)
        r.auditPersists = true;
    const std::vector<RunResult> grouped = runCrashGroup(group);
    ASSERT_EQ(grouped.size(), 3u);
    for (std::size_t i = 0; i < group.size(); ++i) {
        const RunResult alone = runOne(group[i]);
        const RunResult &res = grouped[i];
        ASSERT_TRUE(alone.persistAudited) << group[i].id;
        EXPECT_EQ(res.status, alone.status) << group[i].id;
        EXPECT_EQ(res.persistAudited, alone.persistAudited);
        EXPECT_EQ(res.persistAuditOk, alone.persistAuditOk);
        EXPECT_EQ(res.persistAuditDetail, alone.persistAuditDetail);
        EXPECT_EQ(res.persistCommits, alone.persistCommits);
        EXPECT_EQ(res.persistEdges, alone.persistEdges);
        EXPECT_EQ(res.persistGroups, alone.persistGroups);
        EXPECT_EQ(runResultToJson(res).dump(),
                  runResultToJson(alone).dump())
            << group[i].id;
    }
}

TEST(CrashGroup, RejectsRequestsOfAnotherGroup)
{
    std::vector<RunRequest> cells = crashCells({"tsoper"});
    // Seeds 1 and 2 are two groups.
    EXPECT_THROW(runCrashGroup({cells.front(), cells.back()}),
                 std::logic_error);
    RunRequest full = cells.front();
    full.crashAt = 0.0;
    EXPECT_THROW(runCrashGroup({full}), std::logic_error);
}

TEST(CrashGroup, CampaignGroupsCrashCellsAndTimesEachOne)
{
    const std::vector<RunRequest> cells = crashCells({"tsoper", "stw"});
    RunnerOptions opt;
    opt.jobs = 4;
    opt.backoffBaseMs = 0;
    const CampaignReport report = runCampaign("groups", cells, opt);
    ASSERT_EQ(report.cells.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellReport &cell = report.cells[i];
        EXPECT_EQ(cell.request, cells[i]);
        EXPECT_EQ(cell.result.status, RunStatus::Ok) << cell.result.detail;
        EXPECT_EQ(cell.attempts, 1u);
        EXPECT_GT(cell.wallMs, 0.0) << cell.request.id;
        EXPECT_EQ(runResultToJson(cell.result).dump(),
                  runResultToJson(runOne(cells[i])).dump())
            << cell.request.id;
    }
}

TEST(CrashGroup, HungTimingRunGivesEveryCellOfItsGroupTheSameVerdict)
{
    // stw's timing runs blow a 50-cycle budget; tsoper's finish.
    std::vector<RunRequest> cells = crashCells({"stw", "tsoper"});
    for (RunRequest &r : cells)
        if (r.engine == "stw")
            r.maxCycles = 50;

    RunnerOptions opt;
    opt.jobs = 4;
    opt.backoffBaseMs = 0;
    const CampaignReport report = runCampaign("hung-timing", cells, opt);
    ASSERT_EQ(report.cells.size(), cells.size());
    for (const CellReport &cell : report.cells) {
        if (cell.request.engine == "stw") {
            const RunResult alone = runOne(cell.request);
            ASSERT_EQ(alone.status, RunStatus::Hung) << alone.detail;
            EXPECT_EQ(cell.result.status, RunStatus::Hung)
                << cell.request.id;
            EXPECT_EQ(cell.result.detail, alone.detail)
                << cell.request.id;
            EXPECT_EQ(cell.attempts, 1u) << cell.request.id;
        } else {
            EXPECT_EQ(cell.result.status, RunStatus::Ok)
                << cell.request.id << ": " << cell.result.detail;
        }
    }
}

// --- Report JSON ------------------------------------------------------

TEST(Report, JsonRoundTripsThroughParser)
{
    std::vector<RunRequest> cells;
    cells.push_back(fakeRequest("a"));
    cells.push_back(fakeRequest("b"));

    RunnerOptions opt;
    opt.jobs = 2;
    opt.cellFn = [](const RunRequest &) {
        RunResult res;
        res.status = RunStatus::Ok;
        res.cycles = 1234;
        res.stats = Json::object();
        return res;
    };
    const CampaignReport report = runCampaign("rt", cells, opt);

    Json doc;
    ASSERT_TRUE(Json::parse(report.toJson().dump(2), &doc));
    EXPECT_EQ(doc["campaign"].asString(), "rt");
    EXPECT_EQ(doc["totals"]["cells"].asUint(), 2u);
    EXPECT_EQ(doc["totals"]["ok"].asUint(), 2u);
    EXPECT_EQ(doc["cells"].at(0)["id"].asString(), "a");
    EXPECT_EQ(doc["cells"].at(0)["cycles"].asUint(), 1234u);
}

TEST(Report, WriteAndVerifyFile)
{
    const std::string path =
        ::testing::TempDir() + "tsoper_report_test.json";

    CampaignReport report;
    report.name = "verify";
    CellReport ok;
    ok.request = fakeRequest("good");
    ok.result.status = RunStatus::Ok;
    report.cells.push_back(ok);

    std::string err;
    ASSERT_TRUE(writeReportFile(report, path, &err)) << err;
    EXPECT_TRUE(verifyReportFile(path, /*requireAllOk=*/true, &err))
        << err;

    CellReport bad;
    bad.request = fakeRequest("torn");
    bad.result.status = RunStatus::CheckFailed;
    report.cells.push_back(bad);
    ASSERT_TRUE(writeReportFile(report, path, &err)) << err;
    EXPECT_TRUE(verifyReportFile(path, /*requireAllOk=*/false, &err))
        << err;
    EXPECT_FALSE(verifyReportFile(path, /*requireAllOk=*/true, &err));
    EXPECT_NE(err.find("torn"), std::string::npos);
}

TEST(Report, CellJsonRoundTripsExactly)
{
    CellReport cell;
    cell.request = fakeRequest("tsoper/radix/x0.1/s1");
    cell.request.crashAt = 0.5;
    cell.request.check = true;
    cell.result.status = RunStatus::Crashed;
    cell.result.detail = "child killed by SIGSEGV";
    cell.result.cycles = 987;
    cell.result.signalName = "SIGSEGV";
    cell.result.stderrTail = "boom";
    cell.result.exitCode = 6;
    cell.attempts = 2;
    cell.wallMs = 12.5;
    cell.quarantined = true;
    cell.attemptLog = {{RunStatus::Crashed, 6.25, "first"},
                       {RunStatus::Crashed, 6.25, "second"}};

    CellReport back;
    std::string err;
    ASSERT_TRUE(cellReportFromJson(cell.toJson(), &back, &err)) << err;
    // The serialized forms must be byte-identical: journal resume
    // reuses these verbatim.
    EXPECT_EQ(back.toJson().dump(), cell.toJson().dump());
    EXPECT_EQ(back.request, cell.request);
    EXPECT_TRUE(back.quarantined);
    ASSERT_EQ(back.attemptLog.size(), 2u);
    EXPECT_EQ(back.attemptLog[1].detail, "second");
}

namespace
{

/** A stats tree big enough that a streamed dump flushes many times. */
Json
bigStats(unsigned points)
{
    Json series = Json::array();
    for (unsigned i = 0; i < points; ++i) {
        Json pair = Json::array();
        pair.push(Json(std::uint64_t{i} * 131)).push(Json(i * 0.375));
        series.push(std::move(pair));
    }
    Json counters = Json::object();
    counters.set("sys.cycles", Json(std::uint64_t{123456789}));
    Json all = Json::object();
    all.set("sfr.size", std::move(series));
    Json stats = Json::object();
    stats.set("counters", std::move(counters))
        .set("histograms", Json::object())
        .set("series", std::move(all));
    return stats;
}

/** A report whose cells carry every optional field of the format. */
CampaignReport
fullReport(unsigned statsPoints)
{
    CampaignReport report;
    report.name = "every-field";
    report.jobs = 3;
    report.wallMs = 42.125;
    report.orphanedThreads = 1;

    CellReport crashed;
    crashed.request = fakeRequest("tsoper/radix/x0.1/s1/c0.5");
    crashed.request.crashAt = 0.5;
    crashed.request.check = true;
    crashed.result.status = RunStatus::CheckFailed;
    crashed.result.detail = "required store \"x\"\tmissing";
    crashed.result.cycles = 987654;
    crashed.result.drainCycles = 1000;
    crashed.result.crashCycle = 493827;
    crashed.result.ops = 4242;
    crashed.result.stores = 1717;
    crashed.result.recoverySummary = "3 lines";
    crashed.result.audited = true;
    crashed.result.durableLines = 12;
    crashed.result.durableWords = 96;
    crashed.result.bufferRecoveredLines = 2;
    crashed.result.requiredStores = 80;
    crashed.result.stats = bigStats(statsPoints);
    crashed.wallMs = 3.5;
    report.cells.push_back(crashed);

    CellReport killed;
    killed.request = fakeRequest("stw/dedup/x0.1/s2");
    killed.result.status = RunStatus::Crashed;
    killed.result.detail = "child killed by SIGSEGV";
    killed.result.exitCode = 139;
    killed.result.signalName = "SIGSEGV";
    killed.result.stderrTail = "boom\n\x01";
    killed.attempts = 2;
    killed.wallMs = 0.1;
    killed.quarantined = true;
    killed.attemptLog = {{RunStatus::Crashed, 0.05, "first"},
                         {RunStatus::Crashed, 0.05, ""}};
    report.cells.push_back(killed);
    return report;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

} // namespace

TEST(Report, StreamedFilesMatchTheDumpedStrings)
{
    const std::string path =
        ::testing::TempDir() + "tsoper_report_stream.json";
    CampaignReport empty;
    empty.name = "empty";
    for (const CampaignReport &report : {fullReport(30000), empty}) {
        std::string err;
        ASSERT_TRUE(writeReportFile(report, path, &err)) << err;
        EXPECT_EQ(readFile(path), report.toJson().dump(2) + "\n")
            << report.name;

        const Json canonical = canonicalReportJson(report);
        std::ostringstream os;
        canonical.dump(os, 2);
        EXPECT_EQ(os.str(), canonical.dump(2)) << report.name;
    }
    std::remove(path.c_str());

    std::string err;
    EXPECT_FALSE(writeReportFile(empty, ::testing::TempDir() +
                                            "no-such-dir/report.json",
                                 &err));
    EXPECT_NE(err.find("cannot open"), std::string::npos);
}

TEST(Report, CopiesOfOneDocumentDumpAndMutateConcurrently)
{
    const CampaignReport report = fullReport(2000);
    const Json shared = report.toJson();
    const std::string expected = shared.dump(2);

    std::atomic<bool> sameBytes{true};
    auto reader = [&] {
        for (int i = 0; i < 3; ++i) {
            const Json copy = shared;
            std::ostringstream os;
            copy.dump(os, 2);
            if (os.str() != expected)
                sameBytes = false;
        }
    };
    std::string mutated;
    auto writer = [&] {
        Json mine = shared;
        for (int i = 0; i < 20; ++i) {
            Json cells = mine["cells"];
            Json cell = cells.at(0);
            Json stats = cell["stats"];
            stats.set("writer", Json(i));
            cell.set("stats", std::move(stats));
            cells.push(std::move(cell));
            mine.set("cells", std::move(cells)).set("round", Json(i));
        }
        mutated = mine.dump();
    };
    std::thread a(reader), b(reader), c(writer);
    a.join();
    b.join();
    c.join();

    EXPECT_TRUE(sameBytes.load());
    EXPECT_EQ(shared.dump(2), expected);
    Json back;
    ASSERT_TRUE(Json::parse(mutated, &back));
    EXPECT_EQ(back["cells"].size(), report.cells.size() + 20);
    EXPECT_EQ(back["round"].asInt(), 19);
}

// --- Journal / resume -------------------------------------------------

namespace
{

CellReport
okCell(const std::string &id, Cycle cycles)
{
    CellReport cell;
    cell.request = fakeRequest(id);
    cell.result.status = RunStatus::Ok;
    cell.result.cycles = cycles;
    cell.result.stats = Json::object();
    return cell;
}

} // namespace

TEST(Journal, AppendAndLoadRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "tsoper_journal_rt.jsonl";
    std::string err;

    CampaignJournal journal;
    ASSERT_TRUE(journal.open(path, "rt", /*truncate=*/true, &err))
        << err;
    journal.append(okCell("a", 10));
    journal.append(okCell("b", 20));
    journal.close();

    JournalIndex idx;
    ASSERT_TRUE(loadJournal(path, &idx, &err)) << err;
    EXPECT_EQ(idx.campaign, "rt");
    ASSERT_EQ(idx.cells.size(), 2u);
    EXPECT_EQ(idx.cells.at("a").result.cycles, 10u);
    EXPECT_EQ(idx.cells.at("b").result.cycles, 20u);
    std::remove(path.c_str());
}

TEST(Journal, ToleratesTornFinalLineAndRejectsWrongFormat)
{
    const std::string path =
        ::testing::TempDir() + "tsoper_journal_torn.jsonl";
    std::string err;

    CampaignJournal journal;
    ASSERT_TRUE(journal.open(path, "torn", /*truncate=*/true, &err));
    journal.append(okCell("a", 10));
    journal.close();
    {
        // A crash mid-append leaves a half-written trailing line.
        std::ofstream os(path, std::ios::app);
        os << "{\"id\":\"b\",\"status\":\"o";
    }
    JournalIndex idx;
    ASSERT_TRUE(loadJournal(path, &idx, &err)) << err;
    EXPECT_EQ(idx.cells.size(), 1u);
    EXPECT_TRUE(idx.cells.count("a"));

    // A record that is not a cell, anywhere but the end, is corruption.
    ASSERT_TRUE(journal.open(path, "torn", /*truncate=*/true, &err));
    journal.append(okCell("a", 10));
    journal.close();
    {
        std::ofstream os(path, std::ios::app);
        os << "{\"event\":\"lease\"}\n";
    }
    ASSERT_TRUE(journal.open(path, "torn", /*truncate=*/false, &err));
    journal.append(okCell("b", 20));
    journal.close();
    EXPECT_FALSE(loadJournal(path, &idx, &err));
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;

    {
        std::ofstream os(path, std::ios::trunc);
        os << "{\"format\":\"something/else\"}\n";
    }
    EXPECT_FALSE(loadJournal(path, &idx, &err));
    EXPECT_NE(err.find("journal"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Journal, TornFinalLineToleratedAtEveryByteOffset)
{
    const std::string path =
        ::testing::TempDir() + "tsoper_journal_cut.jsonl";
    std::string err;

    {
        CampaignJournal journal;
        ASSERT_TRUE(journal.open(path, "torn", /*truncate=*/true,
                                 &err))
            << err;
        journal.append(okCell("keep0", 10));
        journal.append(okCell("keep1", 20));
        journal.append(okCell("torn", 30));
    }

    std::string full;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        full = buf.str();
    }
    // Start of the final record: the byte after the second-to-last
    // newline (the file ends with one).
    ASSERT_FALSE(full.empty());
    ASSERT_EQ(full.back(), '\n');
    const std::size_t lastStart =
        full.rfind('\n', full.size() - 2) + 1;
    const std::size_t lastLen = full.size() - lastStart;
    ASSERT_GT(lastLen, 2u);

    // A writer can die after any byte of the final append.  Whatever
    // the cut, the journal must load and keep the intact prefix.  Two
    // cuts are special: +0 ends cleanly on the previous newline (no
    // warning, nothing torn) and +lastLen-1 severs only the trailing
    // newline, leaving a complete third record.
    for (std::size_t cut = 0; cut < lastLen; ++cut) {
        {
            std::ofstream out(path,
                              std::ios::binary | std::ios::trunc);
            out.write(full.data(), static_cast<std::streamsize>(
                                       lastStart + cut));
        }
        JournalIndex index;
        std::string warn;
        ASSERT_TRUE(loadJournal(path, &index, &err, &warn))
            << "cut at +" << cut << ": " << err;
        EXPECT_TRUE(index.cells.count("keep0"));
        EXPECT_TRUE(index.cells.count("keep1"));
        if (cut == 0) {
            EXPECT_EQ(index.cells.size(), 2u);
            EXPECT_TRUE(warn.empty()) << warn; // clean end-of-file
        } else if (cut == lastLen - 1) {
            EXPECT_EQ(index.cells.size(), 3u); // record is whole
            EXPECT_TRUE(warn.empty()) << warn;
        } else {
            EXPECT_EQ(index.cells.size(), 2u) << "cut at +" << cut;
            EXPECT_NE(warn.find("torn"), std::string::npos)
                << "cut at +" << cut << ": no warning";
        }
    }

    // The untruncated journal still loads all three, silently.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(full.data(),
                  static_cast<std::streamsize>(full.size()));
    }
    JournalIndex index;
    std::string warn;
    ASSERT_TRUE(loadJournal(path, &index, &err, &warn)) << err;
    EXPECT_TRUE(warn.empty()) << warn;
    EXPECT_EQ(index.cells.size(), 3u);
    std::remove(path.c_str());
}

TEST(Journal, ResumeRunsOnlyUnjournaledCells)
{
    const std::string path =
        ::testing::TempDir() + "tsoper_journal_resume.jsonl";
    std::string err;

    std::vector<RunRequest> cells;
    for (int i = 0; i < 4; ++i)
        cells.push_back(fakeRequest("cell" + std::to_string(i)));

    std::atomic<int> executed{0};
    RunnerOptions opt;
    opt.jobs = 2;
    opt.backoffBaseMs = 0;
    opt.cellFn = [&](const RunRequest &r) {
        executed.fetch_add(1);
        RunResult res;
        res.status = RunStatus::Ok;
        res.cycles = 100 + (r.id.back() - '0');
        res.stats = Json::object();
        return res;
    };

    // First run covers only the first two cells, as if the campaign
    // was interrupted halfway.
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(path, "resume", /*truncate=*/true, &err));
    opt.journal = &journal;
    const CampaignReport first = runCampaign(
        "resume", {cells[0], cells[1]}, opt);
    journal.close();
    EXPECT_EQ(executed.load(), 2);

    JournalIndex idx;
    ASSERT_TRUE(loadJournal(path, &idx, &err)) << err;
    ASSERT_EQ(idx.cells.size(), 2u);

    // The resumed run executes only the two missing cells...
    opt.journal = nullptr;
    opt.resumeFrom = &idx;
    const CampaignReport second = runCampaign("resume", cells, opt);
    EXPECT_EQ(executed.load(), 4);
    EXPECT_EQ(second.resumedCount(), 2u);
    EXPECT_TRUE(second.allOk());

    // ...and the journaled cells come back byte-identical.
    for (int i = 0; i < 2; ++i) {
        EXPECT_TRUE(second.cells[i].fromJournal);
        EXPECT_EQ(second.cells[i].toJson().dump(),
                  first.cells[i].toJson().dump());
    }
    EXPECT_FALSE(second.cells[2].fromJournal);

    // A journaled cell whose request no longer matches the manifest
    // (same id, different knobs) is re-run, not reused.
    std::vector<RunRequest> edited = cells;
    edited[0].seed = 99;
    const CampaignReport third = runCampaign("resume", edited, opt);
    EXPECT_EQ(executed.load(), 4 + 3);
    EXPECT_FALSE(third.cells[0].fromJournal);
    EXPECT_TRUE(third.cells[1].fromJournal);
    std::remove(path.c_str());
}

TEST(Runner, ExecutesEveryCellExactlyOnceUnderContention)
{
    // Every fifth cell comes back from a journal; the rest are claimed
    // by 8 job threads and must each run exactly once.
    constexpr int kCells = 500;
    std::vector<RunRequest> cells;
    JournalIndex journaled;
    for (int i = 0; i < kCells; ++i) {
        cells.push_back(fakeRequest(std::to_string(i)));
        if (i % 5 == 0)
            journaled.cells[cells.back().id] = okCell(cells.back().id, 1);
    }
    std::vector<std::atomic<int>> hits(kCells);
    for (auto &h : hits)
        h.store(0);

    RunnerOptions opt;
    opt.jobs = 8;
    opt.backoffBaseMs = 0;
    opt.resumeFrom = &journaled;
    opt.cellFn = [&](const RunRequest &r) {
        const int i = std::stoi(r.id);
        // A tiny stagger so the threads finish unevenly.
        if (i % 7 == 0)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        hits[i].fetch_add(1);
        RunResult res;
        res.status = RunStatus::Ok;
        return res;
    };

    const CampaignReport report = runCampaign("contention", cells, opt);
    EXPECT_EQ(report.resumedCount(), kCells / 5u);
    EXPECT_TRUE(report.allOk());
    for (int i = 0; i < kCells; ++i)
        EXPECT_EQ(hits[i].load(), i % 5 == 0 ? 0 : 1) << "cell " << i;
}
