/**
 * @file
 * Allocation budget of the per-access path.
 *
 * This executable replaces the global operator new/delete with
 * counting versions and counts the allocations made while
 * System::run() simulates a fixed-seed cell, per executed event.  The
 * per-line tables (sim/line_map.hh), the move-only completions
 * (sim/callback.hh) and the mesh route table keep loads, stores and
 * persists off the allocator; what remains is growth of tables to the
 * run's peak footprint, per-atomic-group bookkeeping and cold paths
 * (lock and barrier waiters).  A change that puts the allocator back
 * on the per-access path shows up here as a budget overrun.
 *
 * Its own executable, because the replacement operators are global.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "campaign/run_request.hh"
#include "core/system.hh"
#include "sim/stats_json.hh"
#include "workload/generators.hh"

namespace
{

std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t bytes)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t bytes, std::align_val_t align)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = (bytes + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace tsoper;

namespace
{

struct Budget
{
    std::uint64_t allocs = 0;
    std::uint64_t events = 0;

    double perEvent() const
    {
        return static_cast<double>(allocs) / static_cast<double>(events);
    }
};

/** Allocations and events of System::run() on one fixed-seed cell,
 *  configured as tsoper_sim would for the same flags. */
Budget
measure(const char *engine, const char *bench, double scale)
{
    campaign::RunRequest req;
    req.engine = engine;
    req.bench = bench;
    req.seed = 1;
    req.scale = scale;
    SystemConfig cfg;
    if (!campaign::resolveConfig(req, &cfg, nullptr))
        ADD_FAILURE() << "unknown engine " << engine;
    const Workload w =
        generateByName(req.bench, cfg.numCores, req.seed, req.scale);
    System sys(cfg, w);
    const std::uint64_t before = allocations.load();
    sys.run();
    Budget b;
    b.allocs = allocations.load() - before;
    b.events = sys.eventQueue().executed();
    return b;
}

/** Print @p b and hold it to @p budget allocations per executed
 *  event.  A cell's budget is its count when the budget was set
 *  (0.245 and 0.412 per event) plus under 5 % headroom. */
void
expectWithinBudget(const char *cell, const Budget &b, double budget)
{
    ASSERT_GT(b.events, 0u);
    std::printf("%s: %llu allocations, %llu events, %.3f per event "
                "(budget %.3f)\n",
                cell, static_cast<unsigned long long>(b.allocs),
                static_cast<unsigned long long>(b.events), b.perEvent(),
                budget);
    EXPECT_LE(b.perEvent(), budget);
}

} // namespace

TEST(AllocBudget, RadixOnTsoper)
{
    expectWithinBudget("radix/tsoper", measure("tsoper", "radix", 1.0),
                       0.256);
}

TEST(AllocBudget, CannealOnBsp)
{
    expectWithinBudget("canneal/bsp", measure("bsp", "canneal", 1.0),
                       0.432);
}

// statsToJson builds each [cycle, value] series point with one
// allocation: a sized array holds its elements in its payload block.
TEST(AllocBudget, StatsSeriesPointIsOneAllocation)
{
    const auto statsToJsonAllocs = [](unsigned points) {
        StatsRegistry reg;
        for (unsigned i = 0; i < points; ++i)
            reg.timeSeries("sfr.size").sample(i, 0.5 * i);
        const std::uint64_t before = allocations.load();
        const Json doc = statsToJson(reg);
        return allocations.load() - before;
    };
    EXPECT_EQ(statsToJsonAllocs(2000) - statsToJsonAllocs(1000), 1000u);
}
