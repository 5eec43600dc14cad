#include "coherence/directory.hh"

#include <utility>

#include "sim/log.hh"

namespace tsoper
{

void
LineSerializer::submit(LineAddr line, Body body)
{
    LineState &state = lines_[line];
    if (state.busy) {
        state.queue.push_back(std::move(body));
        return;
    }
    dispatch(line, state, std::move(body));
}

bool
LineSerializer::busy(LineAddr line) const
{
    const LineState *state = lines_.find(line);
    return state && state->busy;
}

void
LineSerializer::dispatch(LineAddr line, LineState &state, Body body)
{
    // The body may submit to other lines (or queue on this one), but
    // the line's state lives in a stable LineMap slot and is erased
    // only by release(), an event of its own.
    state.busy = true;
    const std::optional<Cycle> freeAt = body(eq_.now());
    if (!freeAt)
        return; // Deferred: a reply handler calls releaseAt().
    tsoper_assert(*freeAt >= eq_.now(), "transaction released in the past");
    eq_.schedule(*freeAt, [this, line] { release(line); });
}

void
LineSerializer::releaseAt(LineAddr line, Cycle at)
{
    const LineState *state = lines_.find(line);
    tsoper_assert(state && state->busy, "deferred release of idle line");
    tsoper_assert(at >= eq_.now(), "deferred release in the past");
    eq_.schedule(at, [this, line] { release(line); });
}

void
LineSerializer::release(LineAddr line)
{
    LineState *state = lines_.find(line);
    tsoper_assert(state && state->busy, "release of idle line");
    if (state->queueHead == state->queue.size()) {
        // Erase idle lines: lines_ stays bounded by in-flight
        // transactions instead of growing with the address footprint.
        lines_.erase(line);
        return;
    }
    Body next = std::move(state->queue[state->queueHead++]);
    if (state->queueHead == state->queue.size()) {
        state->queue.clear();
        state->queueHead = 0;
    }
    dispatch(line, *state, std::move(next));
}

DirectoryCapacity::DirectoryCapacity(unsigned entriesPerBank, unsigned banks,
                                     unsigned evictBufferEntries,
                                     StatsRegistry &stats)
    : array_(std::max(1u, entriesPerBank / 8) * banks, 8,
             /*setShift=*/0),
      evictions_(stats.counter("dir.evictions")),
      evictBufferHist_(stats.histogram("dir.evict_buffer_occupancy")),
      evictBufferCap_(evictBufferEntries)
{
}

std::optional<LineAddr>
DirectoryCapacity::allocate(LineAddr line)
{
    const auto result = array_.insert(line);
    if (result.noSpace)
        tsoper_panic("directory set fully pinned");
    if (result.evicted) {
        evictions_.inc();
        return result.victim;
    }
    return std::nullopt;
}

void
DirectoryCapacity::release(LineAddr line)
{
    array_.erase(line);
}

void
DirectoryCapacity::evictBufferEnter(LineAddr line)
{
    evictBuffer_.tryEmplace(line);
    evictBufferHist_.add(evictBuffer_.size());
    // The paper sizes this buffer so it never backpressures (footnote:
    // directory evictions are rare).  The model has no backpressure
    // path, so exceeding the cap would silently simulate impossible
    // hardware — make it a hard invariant instead.
    tsoper_assert(evictBuffer_.size() <= evictBufferCap_,
                  "directory eviction buffer over capacity: ",
                  evictBuffer_.size(), " entries, cap ",
                  evictBufferCap_);
}

void
DirectoryCapacity::evictBufferLeave(LineAddr line)
{
    evictBuffer_.erase(line);
}

bool
DirectoryCapacity::inEvictBuffer(LineAddr line) const
{
    return evictBuffer_.contains(line);
}

} // namespace tsoper
