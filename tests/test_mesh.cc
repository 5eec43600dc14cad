/** @file Unit tests for the mesh NoC model. */

#include <gtest/gtest.h>

#include <utility>

#include "noc/mesh.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

using namespace tsoper;

namespace
{

SystemConfig
cfg4x4()
{
    SystemConfig cfg;
    return cfg; // Defaults: 4x4 mesh, 8 cores, 8 banks.
}

} // namespace

TEST(Mesh, HopCountIsManhattanDistance)
{
    StatsRegistry stats;
    SystemConfig cfg = cfg4x4();
    Mesh m(cfg, stats);
    EXPECT_EQ(m.hops(0, 0), 0u);
    EXPECT_EQ(m.hops(0, 3), 3u);  // Same row, cols 0->3.
    EXPECT_EQ(m.hops(0, 15), 6u); // Opposite corners of 4x4.
    EXPECT_EQ(m.hops(5, 6), 1u);
}

TEST(Mesh, IdealLatencyScalesWithHopsAndBytes)
{
    StatsRegistry stats;
    SystemConfig cfg = cfg4x4();
    Mesh m(cfg, stats);
    const Cycle small = m.idealLatency(0, 3, 8);
    const Cycle big = m.idealLatency(0, 3, 72);
    EXPECT_GT(big, small);
    EXPECT_EQ(small, 3 * cfg.hopLatency + 1);
}

TEST(Mesh, SelfSendCostsOneCycle)
{
    StatsRegistry stats;
    SystemConfig cfg = cfg4x4();
    Mesh m(cfg, stats);
    EXPECT_EQ(m.route(2, 2, 64, 100), 101u);
}

TEST(Mesh, UncontendedRouteMatchesIdealLatency)
{
    // Every (src, dst) pair of three mesh shapes: the precomputed
    // route of each pair must cost exactly its ideal latency when no
    // other message holds a link.
    for (const auto &[cols, rows] :
         {std::pair{4u, 4u}, std::pair{2u, 3u}, std::pair{1u, 8u}}) {
        SystemConfig cfg = cfg4x4();
        cfg.meshCols = cols;
        cfg.meshRows = rows;
        const int n = static_cast<int>(cols * rows);
        for (int src = 0; src < n; ++src) {
            for (int dst = 0; dst < n; ++dst) {
                StatsRegistry stats;
                Mesh m(cfg, stats);
                for (unsigned bytes : {8u, 72u}) {
                    // Depart well after the previous message drained.
                    const Cycle depart = bytes * 1000;
                    EXPECT_EQ(m.route(src, dst, bytes, depart),
                              depart + m.idealLatency(src, dst, bytes))
                        << cols << "x" << rows << " " << src << "->"
                        << dst << " bytes=" << bytes;
                }
                EXPECT_EQ(stats.get("noc.link_wait_cycles"), 0u);
            }
        }
    }
}

TEST(Mesh, ContentionDelaysSecondMessage)
{
    StatsRegistry stats;
    SystemConfig cfg = cfg4x4();
    Mesh m(cfg, stats);
    // Two large messages over the same first link at the same cycle.
    const Cycle first = m.route(0, 3, 160, 0);
    const Cycle second = m.route(0, 3, 160, 0);
    EXPECT_GT(second, first);
    EXPECT_GT(stats.get("noc.link_wait_cycles"), 0u);
}

TEST(Mesh, DisjointPathsDoNotInterfere)
{
    StatsRegistry stats;
    SystemConfig cfg = cfg4x4();
    Mesh m(cfg, stats);
    const Cycle a = m.route(0, 1, 160, 0);
    const Cycle b = m.route(14, 15, 160, 0); // Far corner link.
    EXPECT_EQ(a - 0, b - 0);
    EXPECT_EQ(stats.get("noc.link_wait_cycles"), 0u);
}

TEST(Mesh, TrafficCountersAccumulate)
{
    StatsRegistry stats;
    SystemConfig cfg = cfg4x4();
    Mesh m(cfg, stats);
    m.route(0, 5, 72, 0);
    m.route(1, 6, 8, 0);
    EXPECT_EQ(stats.get("noc.messages"), 2u);
    EXPECT_EQ(stats.get("noc.bytes"), 80u);
}

TEST(Mesh, NodeMapping)
{
    StatsRegistry stats;
    SystemConfig cfg = cfg4x4();
    Mesh m(cfg, stats);
    EXPECT_EQ(m.coreNode(0), 0);
    EXPECT_EQ(m.coreNode(7), 7);
    EXPECT_EQ(m.bankNode(0), 8);
    EXPECT_EQ(m.bankNode(7), 15);
    EXPECT_EQ(m.mcNode(3), m.bankNode(3));
}
