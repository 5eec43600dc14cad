#include "coherence/txn.hh"

#include <algorithm>
#include <utility>

#include "sim/log.hh"

namespace tsoper
{

TxnTable::TxnTable(StatsRegistry &stats)
    : allocs_(stats.counter("dir.txn_allocs")),
      legs_(stats.counter("dir.txn_legs")),
      occupancy_(stats.histogram("dir.txn_occupancy"))
{
}

TxnTable::Id
TxnTable::begin(unsigned waits, Completion completion)
{
    tsoper_assert(waits >= 1, "transaction with no legs to wait on");
    const Id id = next_++;
    entries_.tryEmplace(
        id, Entry{waits, 0, std::move(completion)});
    allocs_.inc();
    occupancy_.add(entries_.size());
    return id;
}

void
TxnTable::legDone(Id id, Cycle at)
{
    Entry *found = entries_.find(id);
    tsoper_assert(found, "leg of unknown transaction ", id);
    Entry &e = *found;
    legs_.inc();
    e.readyAt = std::max(e.readyAt, at);
    tsoper_assert(e.waits > 0, "transaction over-acknowledged");
    if (--e.waits > 0)
        return;
    // Move out before erasing: the completion may open new entries.
    Completion fire = std::move(e.completion);
    const Cycle readyAt = e.readyAt;
    entries_.erase(id);
    fire(readyAt);
}

Mshr::Mshr(EventQueue &eq, unsigned cores, unsigned entriesPerCore,
           StatsRegistry &stats)
    : eq_(eq), entriesPerCore_(entriesPerCore), cores_(cores),
      fullStalls_(stats.counter("mshr.full_stalls")),
      occupancy_(stats.histogram("mshr.occupancy"))
{
    tsoper_assert(entriesPerCore >= 1, "a core needs at least one MSHR");
}

bool
Mshr::has(CoreId core, LineAddr line) const
{
    return cores_[static_cast<unsigned>(core)].lines.contains(line);
}

bool
Mshr::full(CoreId core) const
{
    return cores_[static_cast<unsigned>(core)].lines.size() >=
           entriesPerCore_;
}

void
Mshr::enter(CoreId core, LineAddr line)
{
    PerCore &pc = cores_[static_cast<unsigned>(core)];
    tsoper_assert(pc.lines.size() < entriesPerCore_, "MSHR overflow");
    const bool inserted = pc.lines.tryEmplace(line).second;
    tsoper_assert(inserted, "duplicate MSHR entry for line ", line);
    occupancy_.add(pc.lines.size());
}

bool
Mshr::admit(CoreId core, LineAddr line, bool *primary)
{
    if (has(core, line))
        return true;
    if (full(core))
        return false;
    enter(core, line);
    *primary = true;
    return true;
}

void
Mshr::leave(CoreId core, LineAddr line)
{
    PerCore &pc = cores_[static_cast<unsigned>(core)];
    const auto erased = pc.lines.erase(line);
    tsoper_assert(erased == 1, "MSHR leave without enter: line ", line);
    if (pc.retries.empty())
        return;
    auto retry = std::move(pc.retries.front());
    pc.retries.pop_front();
    eq_.scheduleIn(0, std::move(retry));
}

void
Mshr::defer(CoreId core, InlineCallback retry)
{
    fullStalls_.inc();
    cores_[static_cast<unsigned>(core)].retries.push_back(
        std::move(retry));
}

std::size_t
Mshr::inFlight(CoreId core) const
{
    return cores_[static_cast<unsigned>(core)].lines.size();
}

} // namespace tsoper
