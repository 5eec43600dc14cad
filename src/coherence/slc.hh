/**
 * @file
 * Sharing-List Coherence (SLC), the SCI-inspired protocol of §IV.
 *
 * Every cacheline with any private-cache presence has a doubly-linked
 * sharing list of per-cache nodes, ordered by directory serialization:
 * the *head* is the most recent requester (the only place the current
 * version can be written), the *tail* is the oldest unpersisted
 * version and owns the persist token.  The three principles of §IV-A
 * are implemented directly:
 *
 *  1. Non-destructive invalidations — invalidated dirty versions stay
 *     on the list (invalid) until they persist.
 *  2. Multiversioning — a list may hold several same-address versions
 *     across different caches; only the head-most version is valid.
 *  3. Tail-to-head persist — versions persist only at the tail;
 *     persisted (or clean) tails unlink, passing the token headwards.
 *
 * Write permission is granted at link-up (OBS 3: reduced L1 exclusion
 * time); invalidations propagate in the background.
 *
 * Timing model: state commits at directory dispatch (see coherence/
 * protocol.hh), while the timing legs are real timestamped messages:
 * forward requests, data replies and permission grants travel as mesh
 * messages whose arrival events fire the requester's completion (the
 * reply shapes of DirectoryController, coherence/directory.hh); memory
 * fills defer the line's serializer slot until the LLC pipe answers.
 * Background traffic (teardown notifications, persist writebacks) is
 * routed without an event of its own (Mesh::route).
 */

#ifndef TSOPER_COHERENCE_SLC_HH
#define TSOPER_COHERENCE_SLC_HH

#include <vector>

#include "coherence/directory.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/line_map.hh"
#include "sim/stats.hh"

namespace tsoper
{

/** One cache's node on a line's sharing list (SlcProtocol's per-core
 *  line state). */
struct SlcNode
{
    CoreId fwd = invalidCore;  ///< Toward the tail (older).
    CoreId bwd = invalidCore;  ///< Toward the head (newer).
    bool valid = true;
    bool dirty = false;
    bool evicted = false;      ///< Lives in the eviction buffer.
    Cycle dataReadyAt = 0;     ///< When this copy's data arrives.
    LineWords words{};
};

class SlcProtocol : public DirectoryController<SlcProtocol, SlcNode>
{
  public:
    SlcProtocol(const SystemConfig &cfg, EventQueue &eq, Mesh &mesh,
                Llc &llc, Nvm &nvm, StatsRegistry &stats);

    ProtocolComplexity complexity() const override;

    // --- Engine-facing API ------------------------------------------

    bool hasNode(CoreId core, LineAddr line) const;
    bool nodeValid(CoreId core, LineAddr line) const;
    bool nodeDirty(CoreId core, LineAddr line) const;

    /** Sharing-list neighbours (testing/introspection): towards the
     *  tail / towards the head; invalidCore at the ends. */
    CoreId nodeFwd(CoreId core, LineAddr line) const;
    CoreId nodeBwd(CoreId core, LineAddr line) const;

    /** Is (core, line)'s node its sharing list's tail? */
    bool nodeIsTail(CoreId core, LineAddr line) const;

    /**
     * Persist-token view of tailness: true iff no *dirty* (unpersisted)
     * version exists below (core, line)'s node.  Valid clean sharers
     * below a node hold no persist obligation — the token passes
     * through them ("invalidated unmodified tails immediately pass the
     * token"; still-valid persisted versions stay as plain sharers).
     */
    bool nodeIsPersistTail(CoreId core, LineAddr line) const;

    /** This version's contents (node must exist). */
    const LineWords &nodeWords(CoreId core, LineAddr line) const;

    /**
     * The persist of (core, line)'s version completed (it is buffered
     * in the AGB / written through the LLC).  Writes the version to the
     * LLC, then unlinks the node if it is invalid or evicted, passing
     * the persist token; a still-valid node simply becomes clean.
     * The node must be its list's tail (§IV-A principle 3).
     */
    void persistComplete(CoreId core, LineAddr line, Cycle now);

    /**
     * An atomic group that held (core, line) as a *clean* member
     * persisted; the node may unlink if it is invalid or evicted.
     */
    void releaseCleanMember(CoreId core, LineAddr line, Cycle now);

    /** Current occupancy of @p core's eviction buffer (§III-B). */
    unsigned evictionBufferOccupancy(CoreId core) const
    {
        return evictBufOcc_[core];
    }

    /** Number of nodes currently on @p line's sharing list. */
    unsigned listLength(LineAddr line) const;

    /** Number of *valid* nodes on @p line's list (coherence view). */
    unsigned validListLength(LineAddr line) const;

  private:
    friend class DirectoryController<SlcProtocol, SlcNode>;
    using Node = SlcNode;

    struct Entry
    {
        CoreId head = invalidCore;
        bool zombie = false; ///< Mid-teardown after a directory eviction.
        unsigned nodes = 0;      ///< Nodes on the list.
        unsigned validNodes = 0; ///< Valid nodes on the list.
    };

    /** DirectoryController's hit tests: a load hits a valid node; a
     *  store hits silently as the head and either already the exclusive
     *  writer or the sole copy (E-like upgrade), and commits there. */
    Node *loadHit(CoreId core, LineAddr line);
    bool storeHit(CoreId core, Addr addr, StoreId store);

    /** Transaction bodies (run at directory dispatch).  nullopt means
     *  the body deferred: a memory fill holds the line until the LLC
     *  pipe reply frees it via LineSerializer::releaseAt. */
    std::optional<Cycle> loadTxn(CoreId core, Addr addr, LoadDone done,
                                 bool primary, Cycle t);
    std::optional<Cycle> storeTxn(CoreId core, Addr addr, StoreId store,
                                  StoreDone done, bool primary, Cycle t);

    /**
     * Memory fill for @p core at @p t, when no valid cached copy
     * exists: the LLC (or NVM) holds the current version (invalid heads
     * imply their successors' versions already reached the LLC).  Links
     * @p core at the head with the fill contents, which it returns, and
     * pins the line's entry against teardown until the fill's reply
     * (replyAfterFill, with *fromNvm) frees the line — so dataReadyAt
     * is final before the next same-line dispatch.
     */
    LineWords linkFill(CoreId core, LineAddr line, Cycle t, bool *fromNvm);

    /** SLC's non-blocking fill release: the line frees once the fill
     *  data is at the bank, no earlier than one directory slot after
     *  dispatch at @p t. */
    auto
    fillRelease(Cycle t) const
    {
        return [freeNoEarlier = t + dirLatency_](Cycle now, Cycle) {
            return std::max(now, freeNoEarlier);
        };
    }

    /**
     * Cache-to-cache forward from head @p h (nonblocking, OBS 3): link
     * @p core above it with a copy of @p h 's version.  The new copy's
     * dataReadyAt is the uncontended estimate of the forward and data
     * legs, no earlier than @p floor, until the reply lands;
     * subsequent same-line forwards read it as their data floor.
     */
    void linkForward(CoreId core, CoreId h, LineAddr line, Cycle floor,
                     Cycle t);

    /**
     * Check a blocked transaction: the core's own node is invalid and
     * must clear (pending persist / frozen AG) before the access may
     * proceed — the caller then parks a retry in nodeWaiters_.
     * Otherwise a stale clean copy is spliced; *relinked is set if it
     * was an AG member (the caller must fire onNodeRelinked after
     * re-creating the node at the head).
     * @return true if the caller must wait.
     */
    bool mustWaitForOwnNode(CoreId core, LineAddr line, Cycle t,
                            bool *relinked = nullptr);

    /**
     * Mark all valid nodes below @p newHead invalid (background inv).
     * @p alreadyExposed names a node whose dirty-expose hook the data
     * path already fired (the old head that supplied the data).
     */
    void invalidateBelow(CoreId newHead, LineAddr line, Cycle t,
                         CoreId alreadyExposed = invalidCore);

    /** Splice (core, line)'s node out of its list and erase it. */
    void unlinkNode(CoreId core, LineAddr line, Cycle t);

    /**
     * A version at/below @p fromCore 's node persisted: fire
     * onBecameTail for each node walking headwards from @p fromCore,
     * stopping after the first dirty node (which now holds the token;
     * everything above it is still blocked).
     */
    void notifyPersistTailUpward(CoreId fromCore, LineAddr line, Cycle t);

    /** Link @p core as the new head of @p line's list with a copy of
     *  @p words that is ready at @p readyAt, resident in its private
     *  cache.  @return the node. */
    Node &linkHead(CoreId core, LineAddr line, const LineWords &words,
                   Cycle readyAt, Cycle t);

    void handleVictim(CoreId core, LineAddr victim, Cycle t);

    /** Directory-entry teardown after a directory eviction (§III-B). */
    void teardownEntry(LineAddr victim, Cycle t);

    void maybeReleaseEntry(LineAddr line, Cycle t);

    void notifyNodeWaiters(CoreId core, LineAddr line);

    /** Reschedule (zero-delay) every retry parked in @p waiters under
     *  @p key, and forget them. */
    void wakeWaiters(LineMap<std::vector<InlineCallback>> &waiters,
                     std::uint64_t key);

    void sampleListStats(LineAddr line);

    void enterEvictBuffer(CoreId core);
    void leaveEvictBuffer(CoreId core);

    LineMap<Entry> entries_;
    std::vector<unsigned> evictBufOcc_;
    /** teardownEntry's snapshot of the list, reused across calls. */
    std::vector<CoreId> teardownOrder_;

    /** Accesses blocked on the owning core's pending node, keyed by
     *  waiterKey(core, line). */
    LineMap<std::vector<InlineCallback>> nodeWaiters_;
    /** Transactions blocked on a zombie entry teardown. */
    LineMap<std::vector<InlineCallback>> zombieWaiters_;

    Histogram &persistListLen_;
    Histogram &coherenceListLen_;
    Histogram &evictBufHist_;

    static std::uint64_t
    waiterKey(CoreId core, LineAddr line)
    {
        return (static_cast<std::uint64_t>(core) << 52) ^ line;
    }
};

} // namespace tsoper

#endif // TSOPER_COHERENCE_SLC_HH
