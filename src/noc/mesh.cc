#include "noc/mesh.hh"

#include <algorithm>
#include <cstdlib>

#include "sim/log.hh"
#include "sim/trace.hh"

namespace tsoper
{

Mesh::Mesh(const SystemConfig &cfg, StatsRegistry &stats)
    : cols_(cfg.meshCols), rows_(cfg.meshRows), hopLatency_(cfg.hopLatency),
      linkBytes_(cfg.linkBytesPerCycle),
      numCores_(static_cast<int>(cfg.numCores)), banks_(cfg.llcBanks),
      links_(cols_ * rows_ * 4),
      messages_(stats.counter("noc.messages")),
      bytes_(stats.counter("noc.bytes")),
      linkWaitCycles_(stats.counter("noc.link_wait_cycles"))
{
    tsoper_assert(cols_ >= 1 && rows_ >= 1);
    const int n = static_cast<int>(nodes());
    routeStart_.reserve(static_cast<std::size_t>(n * n) + 1);
    for (int src = 0; src < n; ++src) {
        for (int dst = 0; dst < n; ++dst) {
            routeStart_.push_back(static_cast<unsigned>(routeLinks_.size()));
            for (int at = src; at != dst;) {
                const int next = nextHop(at, dst);
                routeLinks_.push_back(linkIndex(at, next));
                at = next;
            }
        }
    }
    routeStart_.push_back(static_cast<unsigned>(routeLinks_.size()));
}

unsigned
Mesh::hops(int src, int dst) const
{
    const int sc = src % static_cast<int>(cols_);
    const int sr = src / static_cast<int>(cols_);
    const int dc = dst % static_cast<int>(cols_);
    const int dr = dst / static_cast<int>(cols_);
    return static_cast<unsigned>(std::abs(sc - dc) + std::abs(sr - dr));
}

int
Mesh::nextHop(int at, int dst) const
{
    const int ac = at % static_cast<int>(cols_);
    const int ar = at / static_cast<int>(cols_);
    const int dc = dst % static_cast<int>(cols_);
    // XY routing: move along the row first, then along the column.
    if (ac < dc)
        return nodeAt(static_cast<unsigned>(ac + 1),
                      static_cast<unsigned>(ar));
    if (ac > dc)
        return nodeAt(static_cast<unsigned>(ac - 1),
                      static_cast<unsigned>(ar));
    const int dr = dst / static_cast<int>(cols_);
    if (ar < dr)
        return nodeAt(static_cast<unsigned>(ac),
                      static_cast<unsigned>(ar + 1));
    return nodeAt(static_cast<unsigned>(ac), static_cast<unsigned>(ar - 1));
}

unsigned
Mesh::linkIndex(int from, int to) const
{
    // Encode the direction of the (from -> to) hop.
    const int fc = from % static_cast<int>(cols_);
    const int tc = to % static_cast<int>(cols_);
    unsigned dir;
    if (to == from - static_cast<int>(cols_))
        dir = 0; // north
    else if (tc == fc + 1)
        dir = 1; // east
    else if (to == from + static_cast<int>(cols_))
        dir = 2; // south
    else
        dir = 3; // west
    return static_cast<unsigned>(from) * 4 + dir;
}

Cycle
Mesh::idealLatency(int src, int dst, unsigned bytes) const
{
    if (src == dst)
        return 1;
    const Cycle ser = (bytes + linkBytes_ - 1) / linkBytes_;
    return hops(src, dst) * hopLatency_ + ser;
}

Cycle
Mesh::route(int src, int dst, unsigned bytes, Cycle depart)
{
    messages_.inc();
    bytes_.inc(bytes);
    if (src == dst)
        return depart + 1;
    const Cycle ser = (bytes + linkBytes_ - 1) / linkBytes_;
    Cycle at = depart;
    const std::size_t pair = static_cast<std::size_t>(src) * nodes() +
                             static_cast<std::size_t>(dst);
    for (unsigned i = routeStart_[pair]; i < routeStart_[pair + 1]; ++i) {
        Link &link = links_[routeLinks_[i]];
        const Cycle start = std::max(at, link.busyUntil);
        linkWaitCycles_.inc(start - at);
        // The link is occupied for the serialization time; the head of
        // the message reaches the next router after the hop latency.
        link.busyUntil = start + ser;
        at = start + hopLatency_;
    }
    // Account for the tail of the message (serialization) once.
    trace::span(trace::Event::NocMsg, invalidCore, depart, at + ser,
                (static_cast<std::uint64_t>(static_cast<unsigned>(src))
                 << 32) |
                    static_cast<unsigned>(dst),
                bytes);
    return at + ser;
}

} // namespace tsoper
