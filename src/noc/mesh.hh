/**
 * @file
 * Lightweight 2D-mesh network-on-chip model.
 *
 * Replaces the paper's GARNET network (see DESIGN.md §1): messages are
 * routed XY over a grid of nodes; each directed link transfers
 * linkBytesPerCycle bytes per cycle and serializes competing messages.
 * The model returns, for a message injected at a given cycle, the cycle
 * at which it is delivered, accounting for hop latency, serialization
 * and link contention.  Routes are fixed, so the constructor tabulates
 * each (src, dst) pair's XY route as its list of directed links; a
 * message walks that list instead of recomputing the route hop by hop.
 *
 * Node map (defaults, 4x4 mesh, 8 cores + 8 LLC/dir/MC tiles):
 *   nodes 0..numCores-1          core tiles (row-major from the top)
 *   nodes numCores..numCores+7   LLC bank / directory bank / MC tiles
 */

#ifndef TSOPER_NOC_MESH_HH
#define TSOPER_NOC_MESH_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tsoper
{

class Mesh
{
  public:
    Mesh(const SystemConfig &cfg, StatsRegistry &stats);

    /** Node id of core @p core's tile. */
    int coreNode(CoreId core) const { return core; }

    /** Node id of LLC/directory bank @p bank's tile. */
    int bankNode(unsigned bank) const { return numCores_ + (int)bank; }

    /** Node id of memory controller @p mc (co-located with bank mc). */
    int mcNode(unsigned mc) const
    {
        return numCores_ + static_cast<int>(mc % banks_);
    }

    /**
     * Route a @p bytes -byte message from @p src to @p dst, injected at
     * cycle @p depart.  Updates per-link contention state (so calls must
     * be made in event order) and returns the delivery cycle.
     */
    Cycle route(int src, int dst, unsigned bytes, Cycle depart);

    /** Contention-free latency between two nodes for @p bytes bytes. */
    Cycle idealLatency(int src, int dst, unsigned bytes) const;

    /** Manhattan hop count between two nodes. */
    unsigned hops(int src, int dst) const;

    unsigned nodes() const { return cols_ * rows_; }

  private:
    struct Link
    {
        Cycle busyUntil = 0;
    };

    unsigned linkIndex(int from, int to) const;
    int nodeAt(unsigned col, unsigned row) const
    {
        return static_cast<int>(row * cols_ + col);
    }

    /** Next node along the XY route from @p at towards @p dst (used
     *  only to build the route table). */
    int nextHop(int at, int dst) const;

    unsigned cols_;
    unsigned rows_;
    Cycle hopLatency_;
    unsigned linkBytes_;
    int numCores_;
    unsigned banks_;
    std::vector<Link> links_; ///< 4 directed links per node (N,E,S,W).
    /** Link indices of every route, concatenated; the route from src
     *  to dst is [routeStart_[p], routeStart_[p + 1]) with
     *  p = src * nodes() + dst. */
    std::vector<unsigned> routeLinks_;
    std::vector<unsigned> routeStart_;
    Counter &messages_;
    Counter &bytes_;
    Counter &linkWaitCycles_;
};

} // namespace tsoper

#endif // TSOPER_NOC_MESH_HH
