/**
 * @file
 * Multi-message transaction bookkeeping for the decomposed directory
 * protocols, whose requests travel as real mesh messages so that a
 * requester completes when the last reply actually arrives (see the
 * timing model in coherence/slc.hh and the reply shapes in
 * coherence/directory.hh):
 *
 *  - TxnTable: home-side transaction entries.  A directory bank that
 *    decomposes a request into several message legs (invalidations
 *    expecting acks, a data fetch, a permission grant) opens an entry
 *    with the number of outstanding legs; each reply folds its arrival
 *    cycle into the entry, and the completion fires — with the
 *    maximum over all legs — when the last one lands.
 *
 *  - Mshr: core-side miss-status holding registers.  A core tracks at
 *    most a fixed number of distinct missing lines in flight; a miss
 *    to a *new* line with all registers busy waits in a FIFO and
 *    retries as registers free.  A repeat access to an already-tracked
 *    line proceeds immediately (a secondary miss merges into the
 *    primary's register).
 */

#ifndef TSOPER_COHERENCE_TXN_HH
#define TSOPER_COHERENCE_TXN_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/line_map.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tsoper
{

class TxnTable
{
  public:
    using Id = std::uint64_t;
    /** Runs when the last leg lands, with the fold (max) of all leg
     *  cycles — which equals the current cycle, since legs arrive in
     *  event order.  Sized for MESI's upgrade completion (this, core,
     *  line, the primary-miss flag and a StoreDone). */
    using Completion = Callback<void(Cycle), 72>;

    explicit TxnTable(StatsRegistry &stats);

    /** Open an entry waiting on @p waits legs (>= 1). */
    Id begin(unsigned waits, Completion completion);

    /** One leg of @p id finished at @p at; fires the completion (and
     *  retires the entry) when the wait count reaches zero. */
    void legDone(Id id, Cycle at);

    /** Entries currently in flight (bounded by line serialization, not
     *  by the address footprint; asserted in test_directory). */
    std::size_t open() const { return entries_.size(); }

  private:
    struct Entry
    {
        unsigned waits;
        Cycle readyAt;
        Completion completion;
    };

    LineMap<Entry> entries_; ///< Keyed by the 64-bit id.
    Id next_ = 0;
    Counter &allocs_;
    Counter &legs_;
    Histogram &occupancy_;
};

class Mshr
{
  public:
    Mshr(EventQueue &eq, unsigned cores, unsigned entriesPerCore,
         StatsRegistry &stats);

    /** Is a miss for (core, line) already in flight? */
    bool has(CoreId core, LineAddr line) const;

    bool full(CoreId core) const;

    /** Track a new primary miss; (core, line) must not be tracked and
     *  the core must have a free register. */
    void enter(CoreId core, LineAddr line);

    /**
     * The protocols' gate for a miss of (core, line): true when it may
     * proceed.  A line already tracked passes — a retry or secondary
     * miss of the in-flight primary.  Otherwise the access claims a
     * register and sets *primary (its completion must then free it,
     * see complete()), or, with every register busy, gets false and
     * parks a retry with defer().
     */
    bool admit(CoreId core, LineAddr line, bool *primary);

    /** Run an access's completion @p done with @p args; a primary
     *  miss first frees its register (so completions never nest). */
    template <typename Done, typename... Args>
    void
    complete(CoreId core, LineAddr line, bool primary, Done &done,
             Args... args)
    {
        if (primary)
            leave(core, line);
        done(args...);
    }

    /** complete() as the event of a reply leg: @p done receives the
     *  arrival cycle, then @p args. */
    template <typename Done, typename... Args>
    InlineCallback
    completion(CoreId core, LineAddr line, bool primary, Done done,
               Args... args)
    {
        return [this, line, core, primary, done = std::move(done),
                args...]() mutable {
            complete(core, line, primary, done, eq_.now(), args...);
        };
    }

    /** Retire (core, line)'s register; if retries are parked, the
     *  oldest is rescheduled (zero-delay) to claim the freed slot.
     *  The protocols call this from the primary miss's completing
     *  leg. */
    void leave(CoreId core, LineAddr line);

    /** Park @p retry until one of @p core's registers frees (FIFO).
     *  The protocols build the retry only here, when a request is
     *  actually parked. */
    void defer(CoreId core, InlineCallback retry);

    std::size_t inFlight(CoreId core) const;

  private:
    struct PerCore
    {
        LineSet lines;
        std::deque<InlineCallback> retries; ///< Parked, oldest first.
    };

    EventQueue &eq_;
    unsigned entriesPerCore_;
    std::vector<PerCore> cores_;
    Counter &fullStalls_;
    Histogram &occupancy_;
};

} // namespace tsoper

#endif // TSOPER_COHERENCE_TXN_HH
