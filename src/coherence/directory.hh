/**
 * @file
 * Directory-side utilities shared by the MESI and SLC protocols:
 *
 *  - LineSerializer: per-cacheline FIFO transaction dispatch.  Each
 *    line admits one transaction at a time; a transaction body runs at
 *    its dispatch cycle, commits protocol state, and returns the cycle
 *    at which the line's directory slot frees up — or defers, keeping
 *    the line held while the transaction's message legs (data fetch,
 *    invalidation acks) are in flight, and frees it via releaseAt()
 *    when the completing leg lands.  This realizes the serialization
 *    the paper's directory performs; a deferred body plus its reply
 *    handlers are the transaction's transient states.
 *
 *  - DirectoryCapacity: finite directory storage with set-associative
 *    victim selection and an eviction buffer for entries whose lines
 *    are still persisting (§III-B).
 *
 *  - DirectoryController: the controller core both protocols are built
 *    on.  SLC and MESI differ in per-line state (a sharing list vs. an
 *    owner and a sharer set), not in the plumbing around it: the
 *    request leg into the home bank, line serialization, LLC/NVM fills
 *    and the reply legs back to the requester.
 */

#ifndef TSOPER_COHERENCE_DIRECTORY_HH
#define TSOPER_COHERENCE_DIRECTORY_HH

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "coherence/protocol.hh"
#include "coherence/txn.hh"
#include "mem/cache_array.hh"
#include "mem/llc.hh"
#include "mem/nvm.hh"
#include "noc/mesh.hh"
#include "sim/callback.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/line_map.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tsoper
{

class LineSerializer
{
  public:
    /** Transaction body: runs at its dispatch cycle and returns the
     *  cycle at which the next transaction for the line may dispatch,
     *  or nullopt for a *deferred* transaction whose completing
     *  message leg calls releaseAt() once it lands.  Sized for a
     *  store body: this, core, address, store id, the primary-miss
     *  flag and a StoreDone. */
    using Body = Callback<std::optional<Cycle>(Cycle), 80>;

    explicit LineSerializer(EventQueue &eq) : eq_(eq) {}

    /** Queue @p body for @p line; dispatches now if the line is idle. */
    void submit(LineAddr line, Body body);

    /** Free @p line — held open by a deferred body — at cycle @p at
     *  (>= now), dispatching the next queued transaction there. */
    void releaseAt(LineAddr line, Cycle at);

    bool busy(LineAddr line) const;

    /**
     * Lines currently tracked (busy or queued).  Idle lines are erased
     * on release, so this is bounded by the in-flight transaction
     * count, not by the address footprint of the run — long campaigns
     * must not grow it monotonically (asserted in test_directory).
     */
    std::size_t trackedLines() const { return lines_.size(); }

  private:
    struct LineState
    {
        bool busy = false;
        /** Bodies waiting for the line, oldest at queueHead.  A vector
         *  allocates nothing until a second transaction queues (a
         *  std::deque allocates on construction). */
        std::vector<Body> queue;
        std::size_t queueHead = 0;
    };

    void dispatch(LineAddr line, LineState &state, Body body);
    void release(LineAddr line);

    EventQueue &eq_;
    LineMap<LineState> lines_;
};

/**
 * Finite directory entry storage.  An entry exists while its line has
 * any presence in private caches.  Allocating into a full set evicts a
 * victim entry, whose teardown the protocol performs via the callback
 * given to allocate(); entries mid-teardown occupy the eviction buffer.
 */
class DirectoryCapacity
{
  public:
    DirectoryCapacity(unsigned entriesPerBank, unsigned banks,
                      unsigned evictBufferEntries, StatsRegistry &stats);

    /**
     * Ensure an entry for @p line exists.
     * @return the victim line whose entry must be torn down, if any.
     */
    std::optional<LineAddr> allocate(LineAddr line);

    /** Drop @p line's entry (its sharing list / sharer set emptied). */
    void release(LineAddr line);

    /** Pin @p line's entry while a deferred transaction holds it open:
     *  pinned entries are skipped by victim selection, so a teardown
     *  triggered from another line's allocate() cannot race the
     *  in-flight message legs.  A no-op if the entry was voluntarily
     *  released meanwhile (all presence vanished mid-flight) — only
     *  *forced* eviction must be excluded. */
    void
    setPinned(LineAddr line, bool pinned)
    {
        if (array_.contains(line))
            array_.setPinned(line, pinned);
    }

    bool contains(LineAddr line) const { return array_.contains(line); }

    /** Teardown bookkeeping for evicted entries. */
    void evictBufferEnter(LineAddr line);
    void evictBufferLeave(LineAddr line);
    bool inEvictBuffer(LineAddr line) const;
    std::size_t evictBufferOccupancy() const { return evictBuffer_.size(); }

    std::size_t entries() const { return array_.size(); }

  private:
    CacheArray array_;
    LineSet evictBuffer_;
    Counter &evictions_;
    Histogram &evictBufferHist_;
    unsigned evictBufferCap_;
};

/**
 * The directory-controller core shared by SlcProtocol and MesiProtocol
 * (CRTP).  It owns the per-core node maps and private-cache arrays,
 * the line serializer, the directory capacity and the MSHRs, and it
 * implements the parts of a transaction the protocols share:
 *
 *  - the request front end: hit test, MSHR admit/defer, and the
 *    request leg core -> home bank into the line's serializer;
 *  - the memory fill: contents resolved at dispatch, timing through
 *    the LLC bank pipe and an NVM read behind it;
 *  - the reply leg: one message to the requester that completes the
 *    access (freeing a primary miss's MSHR) and raises the requester
 *    copy's dataReadyAt to its arrival;
 *  - the two reply shapes built on it: bank -> requester data after a
 *    fill (replyAfterFill), and a forward to the owner whose data then
 *    leaves no earlier than a floor cycle (forwardReply).
 *
 * How long a transaction holds its line is the protocol's choice and
 * is passed to the reply shapes: MESI's blocking directory frees the
 * line when the data lands, SLC's non-blocking one as soon as the
 * fill is at the bank.  A deferred body pins its line's directory
 * entry (DirectoryCapacity::setPinned); finishTxn() unpins it and
 * frees the serializer slot.
 *
 * @p Protocol supplies, as members this class may call:
 *  - `Node *loadHit(CoreId, LineAddr)`: the node a load hits in, after
 *    counting the hit and touching the line; nullptr on a miss;
 *  - `bool storeHit(CoreId, Addr, StoreId)`: commit a store that needs
 *    no directory transaction; false on a miss;
 *  - `loadTxn`/`storeTxn`: the transaction bodies (LineSerializer::
 *    Body contract: nullopt defers the line's release);
 *  - `handleVictim(CoreId, LineAddr victim, Cycle)`: its private-cache
 *    victim policy.
 * @p Node is its per-core line state, with at least `LineWords words`
 * and `Cycle dataReadyAt` (when this copy's data arrives).
 */
template <typename Protocol, typename Node>
class DirectoryController : public CoherenceProtocol
{
  public:
    void
    load(CoreId core, Addr addr, LoadDone done) override
    {
        issueLoad(core, addr, std::move(done), false);
    }

    void
    store(CoreId core, Addr addr, StoreId store, StoreDone done) override
    {
        issueStore(core, addr, store, std::move(done), false);
    }

  protected:
    /** @p prefix names the protocol's hit/miss/upgrade counters. */
    DirectoryController(const SystemConfig &cfg, EventQueue &eq, Mesh &mesh,
                        Llc &llc, Nvm &nvm, StatsRegistry &stats,
                        const std::string &prefix)
        : cfg_(cfg), eq_(eq), mesh_(mesh), llc_(llc), nvm_(nvm),
          serializer_(eq), capacity_(cfg.dirEntriesPerBank, cfg.llcBanks,
                                     cfg.dirEvictBufferEntries, stats),
          mshr_(eq, cfg.numCores, cfg.mshrEntries, stats),
          banks_(cfg.llcBanks), nodes_(cfg.numCores),
          hits_(stats.counter(prefix + ".hits")),
          misses_(stats.counter(prefix + ".misses")),
          upgrades_(stats.counter(prefix + ".upgrades")),
          coherenceWb_(stats.counter("traffic.coherence_wb"))
    {
        arrays_.reserve(cfg.numCores);
        for (unsigned c = 0; c < cfg.numCores; ++c)
            arrays_.emplace_back(cfg.privSets, cfg.privWays);
    }

    Node *
    findNode(CoreId core, LineAddr line)
    {
        return nodes_[static_cast<unsigned>(core)].find(line);
    }

    const Node *
    findNode(CoreId core, LineAddr line) const
    {
        return nodes_[static_cast<unsigned>(core)].find(line);
    }

    const Node &
    node(CoreId core, LineAddr line) const
    {
        const Node *n = findNode(core, line);
        tsoper_assert(n, "missing node: core=", core, " line=", line);
        return *n;
    }

    Node &
    node(CoreId core, LineAddr line)
    {
        return const_cast<Node &>(std::as_const(*this).node(core, line));
    }

    unsigned
    bankOf(LineAddr line) const
    {
        return static_cast<unsigned>(line) & (banks_ - 1);
    }

    /** Mesh tile of @p line's home (LLC/directory) bank. */
    int homeNode(LineAddr line) const { return mesh_.bankNode(bankOf(line)); }

    int coreNode(CoreId core) const { return mesh_.coreNode(core); }

    /** A timestamped message: route @p bytes from tile @p src to tile
     *  @p dst departing at @p depart, and run @p fn there on arrival.
     *  @return the arrival cycle. */
    Cycle
    send(int src, int dst, unsigned bytes, Cycle depart, InlineCallback fn)
    {
        const Cycle at = mesh_.route(src, dst, bytes, depart);
        eq_.schedule(at, std::move(fn));
        return at;
    }

    /**
     * load()/store() with the request's MSHR state: @p primary is true
     * when this access holds (core, line)'s MSHR register (claimed by
     * Mshr::admit), which the leg that completes it frees
     * (Mshr::complete).  Retries of a parked access re-enter here with
     * the flag they were parked with.
     */
    void
    issueLoad(CoreId core, Addr addr, LoadDone done, bool primary)
    {
        const LineAddr line = lineOf(addr);
        if (const Node *n = self().loadHit(core, line)) {
            const StoreId value = n->words[wordOf(addr)];
            eq_.scheduleIn(cfg_.privLatency,
                           mshr_.completion(core, line, primary,
                                            std::move(done), value));
            return;
        }
        if (!mshr_.admit(core, line, &primary)) {
            mshr_.defer(core, [this, addr, core,
                               done = std::move(done)]() mutable {
                issueLoad(core, addr, std::move(done), false);
            });
            return;
        }
        misses_.inc();
        submitTxn(core, line,
                  [this, addr, core, primary,
                   done = std::move(done)](Cycle t) mutable {
                      return self().loadTxn(core, addr, std::move(done),
                                            primary, t);
                  });
    }

    void
    issueStore(CoreId core, Addr addr, StoreId store, StoreDone done,
               bool primary)
    {
        const LineAddr line = lineOf(addr);
        if (self().storeHit(core, addr, store)) {
            eq_.scheduleIn(cfg_.privLatency,
                           mshr_.completion(core, line, primary,
                                            std::move(done)));
            return;
        }
        if (!mshr_.admit(core, line, &primary)) {
            mshr_.defer(core, [this, addr, store, core,
                               done = std::move(done)]() mutable {
                issueStore(core, addr, store, std::move(done), false);
            });
            return;
        }
        submitTxn(core, line,
                  [this, addr, store, core, primary,
                   done = std::move(done)](Cycle t) mutable {
                      return self().storeTxn(core, addr, store,
                                             std::move(done), primary, t);
                  });
    }

    /** Commit @p store into @p n, (core, addr)'s copy, at @p t: the
     *  caller has already set the copy's dirty/modified state. */
    void
    commitStore(Node &n, CoreId core, Addr addr, StoreId store, Cycle t)
    {
        n.words[wordOf(addr)] = store;
        hooks_->onStoreCommitted(core, lineOf(addr), t);
        logStore(core, addr, store);
    }

    /**
     * Contents of a memory fill of @p line at @p t: the LLC's copy, or
     * on an LLC miss (*fromNvm) the durable NVM version, installed
     * clean into the LLC.  Only the timing goes through the pipes
     * (fillTiming); contents are directory-side state and resolve now.
     */
    LineWords
    readMemory(LineAddr line, Cycle t, bool *fromNvm)
    {
        *fromNvm = !llc_.contains(line);
        if (!*fromNvm)
            return llc_.lookup(line);
        const LineWords words = nvm_.durable(line);
        llc_.install(line, words, false, t);
        return words;
    }

    /**
     * Timing tail of a memory fill, starting from the LLC pipe: async
     * bank access, an NVM read behind it on an LLC miss.  Runs at the
     * directory.  @p finish (a void(Cycle) callable, stored in the bank
     * access's completion) runs when the fill data is at the bank, with
     * that cycle.
     */
    template <typename Finish>
    void
    fillTiming(LineAddr line, Cycle t, bool fromNvm, Finish finish)
    {
        llc_.accessAsync(line, t,
                         [this, line, fromNvm,
                          finish = std::move(finish)](Cycle at) mutable {
                             if (fromNvm)
                                 at = nvm_.read(line, at);
                             finish(at);
                         });
    }

    /** A dirty copy leaves @p core for the LLC: the LLC takes @p words
     *  at @p t, and the writeback travels core -> home (nothing waits
     *  on it).  @return its arrival cycle. */
    Cycle
    writeBack(CoreId core, LineAddr line, const LineWords &words, Cycle t)
    {
        llc_.install(line, words, true, t);
        coherenceWb_.inc();
        return mesh_.route(coreNode(core), homeNode(line),
                           lineBytes + cfg_.ctrlMsgBytes, t);
    }

    /** Capacity insert into @p core's array; the protocol handles the
     *  victim. */
    void
    insertResident(CoreId core, LineAddr line, Cycle t)
    {
        auto result = arrays_[static_cast<unsigned>(core)].insert(line);
        tsoper_assert(!result.noSpace, "private cache set fully pinned");
        if (result.evicted)
            self().handleVictim(core, result.victim, t);
    }

    /** Retire a deferred transaction: unpin @p line's directory entry
     *  and free the line's serializer slot at @p at. */
    void
    finishTxn(LineAddr line, Cycle at)
    {
        capacity_.setPinned(line, false);
        serializer_.releaseAt(line, at);
    }

    /**
     * The reply leg: route @p bytes from tile @p src to @p core
     * departing at @p depart.  On arrival the access completes with
     * the arrival cycle and @p args (a primary miss frees its MSHR
     * first); the requester's copy, if present, is ready no earlier
     * than that arrival.  @return the arrival cycle.
     */
    template <typename Done, typename... Args>
    Cycle
    reply(int src, CoreId core, LineAddr line, unsigned bytes, Cycle depart,
          bool primary, Done done, Args... args)
    {
        const Cycle at =
            send(src, coreNode(core), bytes, depart,
                 mshr_.completion(core, line, primary, std::move(done),
                                  args...));
        if (Node *n = findNode(core, line))
            n->dataReadyAt = std::max(n->dataReadyAt, at);
        return at;
    }

    /**
     * Reply shape 1, a memory fill: when fillTiming has the data at
     * the home bank, it travels bank -> @p core and completes the
     * access there.  The caller deferred its body with @p line's entry
     * pinned; the line frees at @p freeAt(now, dataAt) (a
     * Cycle(Cycle, Cycle) callable), where now is the cycle the fill
     * data reached the bank and dataAt the data leg's arrival.
     */
    template <typename FreeAt, typename Done, typename... Args>
    void
    replyAfterFill(CoreId core, LineAddr line, Cycle t, bool fromNvm,
                   FreeAt freeAt, bool primary, Done done, Args... args)
    {
        fillTiming(line, t, fromNvm,
                   [this, line, freeAt, core, primary,
                    done = std::move(done), args...](Cycle at) mutable {
                       const Cycle dataAt =
                           reply(homeNode(line), core, line,
                                 lineBytes + cfg_.ctrlMsgBytes, at, primary,
                                 std::move(done), args...);
                       finishTxn(line, freeAt(eq_.now(), dataAt));
                   });
    }

    /**
     * Reply shape 2, a forward: the home bank forwards the request to
     * @p owner at @p t; the owner's data leaves for @p core once the
     * forward has landed and no earlier than @p floor (the owner's own
     * copy arriving, an engine's exposure delay), and completes the
     * access there.  With @p writeback the owner's dirty data then
     * travels home as well (traffic only: the LLC contents moved at
     * dispatch).  @p then (a void(Cycle dataAt) callable) runs after
     * the legs leave — a blocking directory frees the line there.
     */
    template <typename Then, typename Done, typename... Args>
    void
    forwardReply(CoreId owner, CoreId core, LineAddr line, Cycle t,
                 Cycle floor, bool writeback, Then then, bool primary,
                 Done done, Args... args)
    {
        send(homeNode(line), coreNode(owner), cfg_.ctrlMsgBytes, t,
             [this, line, floor, then, owner, core, writeback, primary,
              done = std::move(done), args...]() mutable {
                 const Cycle ready = std::max(eq_.now(), floor);
                 // The data reply leaves first (critical path)...
                 const Cycle dataAt =
                     reply(coreNode(owner), core, line,
                           lineBytes + cfg_.ctrlMsgBytes, ready, primary,
                           std::move(done), args...);
                 // ...then the downgrade writeback.
                 if (writeback)
                     mesh_.route(coreNode(owner), homeNode(line),
                                 lineBytes + cfg_.ctrlMsgBytes, ready);
                 then(dataAt);
             });
    }

    const SystemConfig &cfg_;
    EventQueue &eq_;
    /** All cross-tile traffic (requests, forwards, replies, writebacks)
     *  is routed over the mesh, which accounts NoC timing and traffic
     *  (noc.messages, the NocMsg trace span). */
    Mesh &mesh_;
    Llc &llc_;
    Nvm &nvm_;
    LineSerializer serializer_;
    DirectoryCapacity capacity_;
    Mshr mshr_;
    unsigned banks_;
    Cycle dirLatency_ = 6;

    std::vector<LineMap<Node>> nodes_; ///< Per core.
    std::vector<CacheArray> arrays_;   ///< Per core.

    Counter &hits_;
    Counter &misses_;
    Counter &upgrades_;
    Counter &coherenceWb_;

  private:
    Protocol &self() { return static_cast<Protocol &>(*this); }

    /** Dispatch a miss/upgrade transaction (a LineSerializer::Body
     *  callable) to @p line's home bank: the request leaves the core
     *  after the private-cache lookup. */
    template <typename Body>
    void
    submitTxn(CoreId core, LineAddr line, Body body)
    {
        send(coreNode(core), homeNode(line), cfg_.ctrlMsgBytes,
             eq_.now() + cfg_.privLatency,
             [this, line, body = std::move(body)]() mutable {
                 serializer_.submit(line, std::move(body));
             });
    }
};

} // namespace tsoper

#endif // TSOPER_COHERENCE_DIRECTORY_HH
