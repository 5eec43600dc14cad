/** @file Tests for the recovery manager and its report. */

#include <gtest/gtest.h>

#include "core/recovery.hh"
#include "core/system.hh"
#include "sim/stats_json.hh"
#include "workload/generators.hh"

using namespace tsoper;

TEST(Recovery, AfterDrainEverythingRecoversAndAudits)
{
    SystemConfig cfg = makeConfig(EngineKind::Tsoper);
    cfg.recordStores = true;
    const Workload w = generateByName("bodytrack", cfg.numCores, 2, 0.05);
    System sys(cfg, w);
    sys.run();
    const RecoveryReport report = recover(sys, PersistModel::StrictTso);
    EXPECT_TRUE(report.audited);
    EXPECT_TRUE(report.consistency.ok) << report.consistency.detail;
    EXPECT_GT(report.durableWords, 0u);
    EXPECT_GT(report.durableLines, 0u);
    EXPECT_EQ(report.bufferRecoveredLines, 0u); // AGB fully drained.
    EXPECT_NE(report.summary().find("PASS"), std::string::npos);
}

TEST(Recovery, MidRunCrashUsesTheBufferOverlay)
{
    SystemConfig cfg = makeConfig(EngineKind::Tsoper);
    cfg.recordStores = true;
    const Workload w = generateByName("radix", cfg.numCores, 2, 0.05);
    Cycle full = 0;
    {
        System sys(cfg, w);
        full = sys.run();
    }
    bool sawBufferRecovery = false;
    for (unsigned i = 1; i <= 8; ++i) {
        System sys(cfg, w);
        sys.runUntilCrash(full * i / 9);
        const RecoveryReport report =
            recover(sys, PersistModel::StrictTso);
        EXPECT_TRUE(report.consistency.ok)
            << "crash " << i << ": " << report.consistency.detail;
        sawBufferRecovery |= report.bufferRecoveredLines > 0;
    }
    // With eight crash points in a persist-heavy run, at least one must
    // catch committed-but-undrained AGB contents.
    EXPECT_TRUE(sawBufferRecovery);
}

// A run stopped at c1 and continued to c2 is the run stopped at c2:
// same durable state, same audit, same stats bytes.  One engine per
// protocol (SLC and MESI).
TEST(Recovery, ContinuedCrashRunEqualsAFreshRun)
{
    for (const EngineKind engine : {EngineKind::Tsoper, EngineKind::Bsp}) {
        SystemConfig cfg = makeConfig(engine);
        cfg.recordStores = true;
        const Workload w = generateByName("dedup", cfg.numCores, 3, 0.05);
        Cycle full = 0;
        {
            System sys(cfg, w);
            full = sys.run();
        }
        System continued(cfg, w);
        for (unsigned i = 1; i <= 4; ++i) {
            const Cycle at = full * i / 5;
            const auto image = continued.runUntilCrash(at);
            System fresh(cfg, w);
            EXPECT_EQ(image, fresh.runUntilCrash(at)) << "crash " << i;
            EXPECT_EQ(recover(continued, PersistModel::StrictTso).summary(),
                      recover(fresh, PersistModel::StrictTso).summary())
                << "crash " << i;
            EXPECT_EQ(statsJsonText(continued.stats()),
                      statsJsonText(fresh.stats()))
                << "crash " << i;
        }
        // Stopping again at the same cycle changes nothing; an
        // earlier one cannot be reached.
        const std::string before = statsJsonText(continued.stats());
        continued.runUntilCrash(full * 4 / 5);
        EXPECT_EQ(statsJsonText(continued.stats()), before);
        EXPECT_THROW(continued.runUntilCrash(full / 5), std::logic_error);
    }
}

TEST(Recovery, UnauditedWithoutStoreLog)
{
    SystemConfig cfg = makeConfig(EngineKind::Tsoper);
    cfg.recordStores = false;
    const Workload w = generateByName("fft", cfg.numCores, 1, 0.05);
    System sys(cfg, w);
    sys.run();
    const RecoveryReport report = recover(sys, PersistModel::StrictTso);
    EXPECT_FALSE(report.audited);
    EXPECT_NE(report.summary().find("not audited"), std::string::npos);
}

TEST(Recovery, AuditImageCountsWords)
{
    std::unordered_map<LineAddr, LineWords> durable;
    LineWords w = zeroLine();
    w[0] = makeStoreId(0, 0);
    w[3] = makeStoreId(0, 1);
    durable[5] = w;
    durable[9] = zeroLine(); // No written words.
    const RecoveryReport report =
        auditImage(durable, nullptr, PersistModel::StrictTso, 8);
    EXPECT_EQ(report.durableLines, 2u);
    EXPECT_EQ(report.durableWords, 2u);
    EXPECT_FALSE(report.audited);
}

TEST(Recovery, FailingAuditIsReported)
{
    StoreLog log(1);
    log.storeCommitted(0, 0x100, makeStoreId(0, 0));
    log.storeCommitted(0, 0x140, makeStoreId(0, 1));
    std::unordered_map<LineAddr, LineWords> durable;
    LineWords w = zeroLine();
    w[wordOf(0x140)] = makeStoreId(0, 1); // Later store without earlier.
    durable[lineOf(0x140)] = w;
    const RecoveryReport report =
        auditImage(durable, &log, PersistModel::StrictTso, 1);
    EXPECT_TRUE(report.audited);
    EXPECT_FALSE(report.consistency.ok);
    EXPECT_NE(report.summary().find("FAIL"), std::string::npos);
}
