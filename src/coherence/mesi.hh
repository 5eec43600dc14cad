/**
 * @file
 * Conventional directory-based MESI protocol.
 *
 * Serves three roles in the reproduction:
 *  1. the conventional baseline the paper quotes SLC's ~3% overhead
 *     against (§V "Systems", bench/stat_slc_vs_mesi);
 *  2. the substrate BSP persists through (Joshi et al. persist via the
 *     LLC, which imposes single-version semantics);
 *  3. the contrast for the protocol-complexity table.
 *
 * Unlike SLC, the directory here is *blocking*: a transaction occupies
 * its line until the requester has data and acknowledgements, which —
 * combined with BSP's flush-before-handover (ProtocolHooks::
 * onDirtyExpose) — produces the L1 exclusion time of Fig. 1a.
 *
 * Blocking is implemented event-driven: state commits at dispatch, the
 * timing legs (forwards, invalidations + acks, data replies) travel as
 * real messages, and the line's serializer slot is held until the last
 * leg lands (LineSerializer::releaseAt): the data reply for a fill or a
 * forward (DirectoryController's reply shapes, coherence/directory.hh),
 * or a TxnTable entry's last ack for a store that invalidates sharers.
 */

#ifndef TSOPER_COHERENCE_MESI_HH
#define TSOPER_COHERENCE_MESI_HH

#include <functional>

#include "coherence/directory.hh"
#include "coherence/txn.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/line_map.hh"
#include "sim/stats.hh"

namespace tsoper
{

/** One private cache's copy of a line (MesiProtocol's per-core line
 *  state). */
struct MesiNode
{
    enum class St { I, S, E, M };

    St st = St::I;
    Cycle dataReadyAt = 0;
    LineWords words{};
};

class MesiProtocol : public DirectoryController<MesiProtocol, MesiNode>
{
  public:
    MesiProtocol(const SystemConfig &cfg, EventQueue &eq, Mesh &mesh,
                 Llc &llc, Nvm &nvm, StatsRegistry &stats);

    ProtocolComplexity complexity() const override;

    // --- BSP engine API -----------------------------------------------

    /** Is (core, line) in state M? */
    bool isModified(CoreId core, LineAddr line) const;

    /** Version contents of (core, line); the node must exist. */
    const LineWords &lineWords(CoreId core, LineAddr line) const;

    /**
     * Epoch flush: write (core, line)'s version through to the LLC,
     * starting no earlier than @p earliest and honouring LLC exclusion
     * (Definition 2: the LLC accepts a newer version only after the
     * older version's NVM persist completed).  The line downgrades to
     * E.  @p done receives the completion cycle and whether a write
     * actually happened (false if the line was no longer modified —
     * e.g. a remote request already forced it to the LLC).
     */
    void flushLine(CoreId core, LineAddr line, Cycle earliest,
                   std::function<void(Cycle, bool)> done);

  private:
    friend class DirectoryController<MesiProtocol, MesiNode>;
    using Node = MesiNode;
    using St = MesiNode::St;

    struct Entry
    {
        CoreId owner = invalidCore;
        std::uint64_t sharers = 0;
    };

    static std::uint64_t bit(CoreId c) { return 1ull << c; }

    /** DirectoryController's hit tests: a load hits any valid copy; a
     *  store hits an exclusive (E/M) copy and commits there. */
    Node *loadHit(CoreId core, LineAddr line);
    bool storeHit(CoreId core, Addr addr, StoreId store);

    /** Transaction bodies (run at directory dispatch).  nullopt means
     *  the body deferred: the line is held until the last timing leg
     *  lands and finishTxn frees it. */
    std::optional<Cycle> loadTxn(CoreId core, Addr addr, LoadDone done,
                                 bool primary, Cycle t);
    std::optional<Cycle> storeTxn(CoreId core, Addr addr, StoreId store,
                                  StoreDone done, bool primary, Cycle t);

    /** Install (core, line) in state @p st with @p words, ready from
     *  @p t and resident in the core's cache, and pin the line's entry:
     *  every MESI transaction that installs a copy holds its line until
     *  the last leg lands. */
    void install(CoreId core, LineAddr line, St st, const LineWords &words,
                 Cycle t);

    /** The blocking directory's release, for both reply shapes: the
     *  line frees when the data reaches the requester. */
    static Cycle freeOnData(Cycle, Cycle dataAt) { return dataAt; }
    auto
    finishOnData(LineAddr line)
    {
        return [this, line](Cycle dataAt) { finishTxn(line, dataAt); };
    }

    /** Lowest-numbered core in @p e 's sharer set (which is non-empty). */
    CoreId firstSharer(const Entry &e) const;

    /**
     * Take @p line exclusive for @p core 's store: open a TxnTable
     * entry waiting on one ack per other sharer plus one data/grant
     * leg, and invalidate those sharers (state commits now; each inv
     * travels as a message and its ack, sharer -> requester, reports a
     * leg).  The entry's completion raises the requester's dataReadyAt,
     * completes the store and frees the line.  @return the entry, for
     * the caller's data/grant leg.
     */
    TxnTable::Id takeExclusive(LineAddr line, CoreId core, Cycle t,
                               bool primary, StoreDone done);

    void handleVictim(CoreId core, LineAddr victim, Cycle t);
    void teardownEntry(LineAddr victim, Cycle t);
    void maybeReleaseEntry(LineAddr line);

    TxnTable txns_;
    LineMap<Entry> entries_;
};

} // namespace tsoper

#endif // TSOPER_COHERENCE_MESI_HH
