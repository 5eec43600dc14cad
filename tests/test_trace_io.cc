/** @file Tests for workload trace serialization. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/system.hh"
#include "workload/generators.hh"
#include "workload/trace_io.hh"

using namespace tsoper;

namespace
{

bool
sameWorkload(const Workload &a, const Workload &b)
{
    if (a.perCore.size() != b.perCore.size() ||
        a.numLocks != b.numLocks || a.numBarriers != b.numBarriers)
        return false;
    for (std::size_t c = 0; c < a.perCore.size(); ++c) {
        if (a.perCore[c].size() != b.perCore[c].size())
            return false;
        for (std::size_t i = 0; i < a.perCore[c].size(); ++i) {
            const TraceOp &x = a.perCore[c][i];
            const TraceOp &y = b.perCore[c][i];
            if (x.type != y.type || x.arg != y.arg)
                return false;
            if ((x.type == OpType::Load || x.type == OpType::Store) &&
                x.addr != y.addr)
                return false;
        }
    }
    return true;
}

} // namespace

TEST(TraceIo, RoundTripsEveryBenchmark)
{
    for (const char *name :
         {"ocean_cp", "radix", "dedup", "fluidanimate", "swaptions"}) {
        const Workload original = generateByName(name, 8, 3, 0.05);
        std::stringstream ss;
        saveWorkload(original, ss);
        const Workload reloaded = loadWorkload(ss);
        EXPECT_TRUE(sameWorkload(original, reloaded)) << name;
        EXPECT_EQ(reloaded.name, original.name);
    }
}

TEST(TraceIo, HandWrittenTraceParses)
{
    std::stringstream ss;
    ss << "# a comment\n"
          "workload demo cores=2 locks=1 barriers=1\n"
          "core 0\n"
          "S 50000000\n"
          "C 10\n"
          "A 0\n"
          "L 50000000\n"
          "R 0\n"
          "M\n"
          "B 0\n"
          "core 1\n"
          "B 0\n";
    const Workload w = loadWorkload(ss);
    EXPECT_EQ(w.name, "demo");
    ASSERT_EQ(w.perCore.size(), 2u);
    ASSERT_EQ(w.perCore[0].size(), 7u);
    EXPECT_EQ(w.perCore[0][0].type, OpType::Store);
    EXPECT_EQ(w.perCore[0][0].addr, 0x50000000u);
    EXPECT_EQ(w.perCore[0][2].type, OpType::LockAcq);
    EXPECT_EQ(w.perCore[0][2].addr, layout::lockAddr(0));
    EXPECT_EQ(w.perCore[0][5].type, OpType::Marker);
    std::string error;
    EXPECT_TRUE(validateWorkload(w, &error)) << error;
}

TEST(TraceIo, LoadedTraceDrivesTheSimulator)
{
    const Workload original = generateByName("canneal", 8, 7, 0.04);
    std::stringstream ss;
    saveWorkload(original, ss);
    const Workload reloaded = loadWorkload(ss);
    SystemConfig cfg = makeConfig(EngineKind::Tsoper);
    System a(cfg, original);
    System b(cfg, reloaded);
    EXPECT_EQ(a.run(), b.run());
}

TEST(TraceIo, RejectsMalformedInput)
{
    {
        std::stringstream ss("core 0\nS 100\n");
        EXPECT_THROW(loadWorkload(ss), std::runtime_error); // No header.
    }
    {
        std::stringstream ss("workload x cores=2\nS 100\n");
        EXPECT_THROW(loadWorkload(ss), std::runtime_error); // No core.
    }
    {
        std::stringstream ss("workload x cores=2\ncore 5\n");
        EXPECT_THROW(loadWorkload(ss), std::runtime_error); // Range.
    }
    {
        std::stringstream ss("workload x cores=2\ncore 0\nQ 1\n");
        EXPECT_THROW(loadWorkload(ss), std::runtime_error); // Directive.
    }
    {
        std::stringstream ss("workload x cores=0\n");
        EXPECT_THROW(loadWorkload(ss), std::runtime_error); // Cores.
    }
    // Header numbers parse whole and unnarrowed: trailing characters,
    // a value that would wrap to a valid count, and non-digits.
    for (const char *header :
         {"workload x cores=8x\n", "workload x cores=4294967304\n",
          "workload x cores=abc\n"}) {
        std::stringstream ss(header);
        EXPECT_THROW(loadWorkload(ss), std::runtime_error) << header;
    }
    // Body operands parse whole too (hex for addresses): trailing
    // characters, a missing operand (a bare 'core' is not core 0), a
    // second operand, a sign, an operand wider than its field, and an
    // operand on the operand-less marker.
    for (const char *body :
         {"core 0x\n", "core\n", "core 0\nC 5zz\n", "core 0\nS 40q\n",
          "core 0\nL\n", "core 0\nL 40 44\n", "core 0\nA -1\n",
          "core 0\nB 4294967296\n", "core 0\nR 0x1\n", "core 0\nM 1\n"}) {
        std::stringstream ss(std::string("workload x cores=2\n") + body);
        EXPECT_THROW(loadWorkload(ss), std::runtime_error) << body;
    }
}

TEST(TraceIo, FileRoundTrip)
{
    const Workload original = generateByName("fft", 4, 1, 0.05);
    const std::string path = "/tmp/tsoper_trace_io_test.trace";
    saveWorkloadFile(original, path);
    const Workload reloaded = loadWorkloadFile(path);
    EXPECT_TRUE(sameWorkload(original, reloaded));
    EXPECT_THROW(loadWorkloadFile("/nonexistent/path.trace"),
                 std::runtime_error);
}
