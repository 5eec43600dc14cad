#include "coherence/slc.hh"

#include <algorithm>
#include <utility>

#include "sim/debug.hh"
#include "sim/log.hh"
#include "sim/trace.hh"

namespace tsoper
{

SlcProtocol::SlcProtocol(const SystemConfig &cfg, EventQueue &eq, Mesh &mesh,
                         Llc &llc, Nvm &nvm, StatsRegistry &stats)
    : DirectoryController(cfg, eq, mesh, llc, nvm, stats, "slc"),
      evictBufOcc_(cfg.numCores, 0),
      persistListLen_(stats.histogram("slc.persist_list_len")),
      coherenceListLen_(stats.histogram("slc.coherence_list_len")),
      evictBufHist_(stats.histogram("slc.evict_buffer_occupancy"))
{
    teardownOrder_.reserve(cfg.numCores); // one node a core per list
}

// --------------------------------------------------------------------
// Hit tests
// --------------------------------------------------------------------

SlcProtocol::Node *
SlcProtocol::loadHit(CoreId core, LineAddr line)
{
    Node *n = findNode(core, line);
    if (!n || !n->valid)
        return nullptr;
    hits_.inc();
    if (!n->evicted)
        arrays_[static_cast<unsigned>(core)].touch(line);
    return n;
}

bool
SlcProtocol::storeHit(CoreId core, Addr addr, StoreId store)
{
    const LineAddr line = lineOf(addr);
    Node *n = findNode(core, line);
    if (!n || !n->valid || n->evicted || n->bwd != invalidCore ||
        (!n->dirty && n->fwd != invalidCore))
        return false;
    hits_.inc();
    arrays_[static_cast<unsigned>(core)].touch(line);
    n->dirty = true;
    commitStore(*n, core, addr, store, eq_.now());
    return true;
}

bool
SlcProtocol::mustWaitForOwnNode(CoreId core, LineAddr line, Cycle t,
                                bool *relinked)
{
    Node *n = findNode(core, line);
    if (!n || n->valid)
        return false;
    if (n->dirty || hooks_->lineInFrozenAg(core, line)) {
        // The local invalid version is pending persist (dirty), or the
        // line belongs to a frozen AG whose dependence set must not
        // grow: the access stalls until the version/group clears
        // (§II-A multiversioning).
        return true;
    }
    // Stale clean copy: splice it and proceed as a plain miss.  If it
    // was a clean member of the still-open AG, the re-linked node will
    // carry the (conservatively larger) dependence; the caller fires
    // onNodeRelinked so the engine recomputes it.
    if (relinked)
        *relinked = hooks_->lineInUnpersistedAg(core, line);
    unlinkNode(core, line, t);
    return false;
}

// --------------------------------------------------------------------
// Transaction bodies
// --------------------------------------------------------------------

std::optional<Cycle>
SlcProtocol::loadTxn(CoreId core, Addr addr, LoadDone done, bool primary,
                     Cycle t)
{
    const LineAddr line = lineOf(addr);
    // Parks this load until the line (or the core's own node) clears.
    const auto retry = [&] {
        return InlineCallback([this, addr, core, primary,
                               done = std::move(done)]() mutable {
            issueLoad(core, addr, std::move(done), primary);
        });
    };
    if (entries_[line].zombie) {
        zombieWaiters_[line].push_back(retry());
        return t + dirLatency_;
    }
    if (Node *n = findNode(core, line); n && n->valid) {
        // Raced with our own eviction-buffer revival or a queued
        // upgrade: serve as a hit.
        const StoreId value = n->words[wordOf(addr)];
        mshr_.complete(core, line, primary, done, t + dirLatency_, value);
        return t + dirLatency_;
    }
    bool relinked = false;
    if (mustWaitForOwnNode(core, line, t, &relinked)) {
        nodeWaiters_[waiterKey(core, line)].push_back(retry());
        return t + dirLatency_;
    }

    if (auto victim = capacity_.allocate(line))
        teardownEntry(*victim, t);

    // Re-fetch: the waiter/teardown paths above may have erased and
    // re-created the entry.
    const CoreId h = entries_[line].head;
    if (h == invalidCore || !node(h, line).valid) {
        bool fromNvm = false;
        const LineWords words = linkFill(core, line, t, &fromNvm);
        if (relinked)
            hooks_->onNodeRelinked(core, line, t);
        sampleListStats(line);
        replyAfterFill(core, line, t, fromNvm, fillRelease(t), primary,
                       std::move(done), words[wordOf(addr)]);
        return std::nullopt;
    }

    // Cache-to-cache: nonblocking (OBS 3).  The list re-links and the
    // hooks fire now — the directory's serialization instant — while
    // the forward request and data reply travel as messages.
    Node &hn = node(h, line);
    bool sourceDirty = hn.dirty;
    Cycle exposeReady = t;
    if (hn.dirty)
        exposeReady = hooks_->onDirtyExpose(h, line, core, false, t);
    bool wb = false;
    if (hn.dirty && hooks_->writebackOnDowngrade()) {
        // The owner will write the dirty data back alongside the data
        // reply and become a clean sharer; contents move now.
        llc_.install(line, hn.words, true, t);
        coherenceWb_.inc();
        hn.dirty = false;
        sourceDirty = false;
        wb = true;
    }
    const Cycle floor = std::max(hn.dataReadyAt, exposeReady);
    const StoreId value = hn.words[wordOf(addr)];
    linkForward(core, h, line, floor, t);
    if (sourceDirty)
        hooks_->onReadDependence(core, line, t);
    if (relinked)
        hooks_->onNodeRelinked(core, line, t);
    forwardReply(h, core, line, t, floor, wb, [](Cycle) {}, primary,
                 std::move(done), value);
    sampleListStats(line);
    return t + dirLatency_;
}

std::optional<Cycle>
SlcProtocol::storeTxn(CoreId core, Addr addr, StoreId store, StoreDone done,
                      bool primary, Cycle t)
{
    const LineAddr line = lineOf(addr);
    // Parks this store until the line, the frozen group or the core's
    // own node clears.
    const auto retry = [&] {
        return InlineCallback([this, addr, store, core, primary,
                               done = std::move(done)]() mutable {
            issueStore(core, addr, store, std::move(done), primary);
        });
    };
    if (entries_[line].zombie) {
        zombieWaiters_[line].push_back(retry());
        return t + dirLatency_;
    }
    if (!hooks_->storeMayCommit(core, line)) {
        hooks_->addStoreWaiter(core, line, retry());
        return t + dirLatency_;
    }
    if (mustWaitForOwnNode(core, line, t)) {
        nodeWaiters_[waiterKey(core, line)].push_back(retry());
        return t + dirLatency_;
    }
    // (A spliced stale clean member needs no onNodeRelinked here: the
    // store-commit hook below recomputes the dependence state.)

    if (auto victim = capacity_.allocate(line))
        teardownEntry(*victim, t);

    Node *n = findNode(core, line);
    bool deferred = false;
    CoreId exposedInDataPath = invalidCore;
    if (n && n->valid) {
        upgrades_.inc();
        if (n->evicted) {
            // Revive from the eviction buffer.
            n->evicted = false;
            leaveEvictBuffer(core);
            insertResident(core, line, t);
        }
        if (n->bwd != invalidCore) {
            // Re-link as the new head above the current readers.  Our
            // copy is current (a newer writer would have invalidated
            // us), so only pointers move.
            const CoreId fwd = n->fwd;
            const CoreId bwd = n->bwd; // a reader above us
            // Splice out of the old position.
            node(bwd, line).fwd = fwd;
            if (fwd != invalidCore)
                node(fwd, line).bwd = bwd;
            else
                hooks_->onBecameTail(bwd, line, t);
            // Prepend at the head.
            Entry &e = entries_[line];
            const CoreId h = e.head;
            n->fwd = h;
            n->bwd = invalidCore;
            if (h != invalidCore)
                node(h, line).bwd = core;
            e.head = core;
        }
        // Permission grant travels as a message; the SB drains when it
        // lands (write permission already held functionally — OBS 3).
        reply(homeNode(line), core, line, cfg_.ctrlMsgBytes, t, primary,
              std::move(done));
    } else {
        misses_.inc();
        const CoreId h = entries_[line].head;
        if (h == invalidCore || !node(h, line).valid) {
            // Fill from the LLC/NVM: blocking (the pipe reply frees the
            // line), same shape as the load-miss path.
            bool fromNvm = false;
            linkFill(core, line, t, &fromNvm);
            replyAfterFill(core, line, t, fromNvm, fillRelease(t), primary,
                           std::move(done));
            deferred = true;
        } else {
            // Forward from the current head; its invalidation folds
            // into the data reply (the exposedInDataPath marker).
            Node &hn = node(h, line);
            Cycle exposeReady = t;
            if (hn.dirty) {
                exposeReady = hooks_->onDirtyExpose(h, line, core, true, t);
                exposedInDataPath = h;
            }
            const Cycle floor = std::max(hn.dataReadyAt, exposeReady);
            linkForward(core, h, line, floor, t);
            forwardReply(h, core, line, t, floor, false, [](Cycle) {},
                         primary, std::move(done));
        }
    }
    invalidateBelow(core, line, t, exposedInDataPath);
    n = &node(core, line);
    TSOPER_TRACE(Slc, t, "core " << core << " is the new head writer of "
                 "line 0x" << std::hex << line << std::dec);
    trace::instant(trace::Event::SlcNewHead, core, t, line);
    n->dirty = true;
    commitStore(*n, core, addr, store, t);
    sampleListStats(line);
    if (deferred)
        return std::nullopt;
    return t + dirLatency_;
}

LineWords
SlcProtocol::linkFill(CoreId core, LineAddr line, Cycle t, bool *fromNvm)
{
    const LineWords words = readMemory(line, t, fromNvm);
    linkHead(core, line, words, 0, t);
    capacity_.setPinned(line, true);
    return words;
}

void
SlcProtocol::linkForward(CoreId core, CoreId h, LineAddr line, Cycle floor,
                         Cycle t)
{
    const Cycle readyAt =
        std::max(t + mesh_.idealLatency(homeNode(line), coreNode(h),
                                        cfg_.ctrlMsgBytes),
                 floor) +
        mesh_.idealLatency(coreNode(h), coreNode(core),
                           lineBytes + cfg_.ctrlMsgBytes);
    linkHead(core, line, node(h, line).words, readyAt, t);
}

// --------------------------------------------------------------------
// List manipulation
// --------------------------------------------------------------------

SlcProtocol::Node &
SlcProtocol::linkHead(CoreId core, LineAddr line, const LineWords &words,
                      Cycle readyAt, Cycle t)
{
    Entry &e = entries_[line];
    tsoper_assert(!findNode(core, line),
                  "prepend with existing node: core=", core);
    Node nn;
    nn.fwd = e.head;
    nn.bwd = invalidCore;
    nn.words = words;
    nn.dataReadyAt = readyAt;
    if (e.head != invalidCore)
        node(e.head, line).bwd = core;
    e.head = core;
    ++e.nodes;
    ++e.validNodes;
    auto [n, ok] = nodes_[static_cast<unsigned>(core)].tryEmplace(line, nn);
    tsoper_assert(ok);
    insertResident(core, line, t);
    return *n;
}

void
SlcProtocol::invalidateBelow(CoreId newHead, LineAddr line, Cycle t,
                             CoreId alreadyExposed)
{
    Entry &e = entries_[line];
    CoreId cur = node(newHead, line).fwd;
    while (cur != invalidCore) {
        Node *vp = findNode(cur, line);
        if (!vp)
            break;
        Node &v = *vp;
        const CoreId next = v.fwd;
        if (v.valid) {
            v.valid = false;
            --e.validNodes;
            TSOPER_TRACE(Slc, t, "core " << cur << "'s copy of line 0x"
                         << std::hex << line << std::dec
                         << " invalidated non-destructively (dirty="
                         << v.dirty << ")");
            trace::instant(trace::Event::SlcInvalidate, cur, t, line,
                           v.dirty);
            // Background invalidation: a real fire-and-forget message
            // (write permission was already granted at link-up, OBS 3,
            // so nothing waits on its arrival).
            mesh_.route(homeNode(line), coreNode(cur), cfg_.ctrlMsgBytes, t);
            if (v.dirty) {
                if (cur != alreadyExposed)
                    hooks_->onDirtyExpose(cur, line, newHead, true, t);
                if (hooks_->dropsInvalidDirty())
                    unlinkNode(cur, line, t);
            } else if (!hooks_->lineInUnpersistedAg(cur, line)) {
                unlinkNode(cur, line, t);
            }
        }
        cur = next;
    }
}

void
SlcProtocol::unlinkNode(CoreId core, LineAddr line, Cycle t)
{
    Node &n = node(core, line);
    Entry &e = entries_[line];
    const CoreId fwd = n.fwd;
    const CoreId bwd = n.bwd;
    if (bwd != invalidCore)
        node(bwd, line).fwd = fwd;
    if (fwd != invalidCore)
        node(fwd, line).bwd = bwd;
    if (e.head == core)
        e.head = fwd;
    --e.nodes;
    if (n.valid)
        --e.validNodes;
    const bool wasTail = (fwd == invalidCore);
    if (!n.evicted)
        arrays_[static_cast<unsigned>(core)].erase(line);
    else
        leaveEvictBuffer(core);
    nodes_[static_cast<unsigned>(core)].erase(line);
    if (wasTail && bwd != invalidCore) {
        hooks_->onBecameTail(bwd, line, t);
        // Cascade: a droppable invalid clean node that just became the
        // tail unlinks immediately (it has nothing to persist and
        // encodes no pb dependence).
        Node *b = findNode(bwd, line);
        if (b && !b->valid && !b->dirty &&
            !hooks_->lineInUnpersistedAg(bwd, line)) {
            unlinkNode(bwd, line, t);
        }
    }
    notifyNodeWaiters(core, line);
    maybeReleaseEntry(line, t);
    sampleListStats(line);
}

void
SlcProtocol::handleVictim(CoreId core, LineAddr victim, Cycle t)
{
    Node &v = node(core, victim);
    tsoper_assert(!v.evicted, "victim already in eviction buffer");
    if (v.dirty) {
        if (hooks_->dropsInvalidDirty()) {
            // Baseline: write the version back if it is current.
            if (v.valid) {
                writeBack(core, victim, v.words, t);
                hooks_->onDirtyEvict(core, victim,
                                     ExposeReason::Eviction, t);
            }
            unlinkNode(core, victim, t);
        } else {
            // §III-B: freeze and persist immediately; the line moves to
            // the eviction buffer and still behaves as an AG member.
            v.evicted = true;
            enterEvictBuffer(core);
            hooks_->onDirtyEvict(core, victim, ExposeReason::Eviction, t);
        }
    } else if (hooks_->lineInUnpersistedAg(core, victim)) {
        // Clean AG member: keep linked for the pb dependence it encodes.
        v.evicted = true;
        enterEvictBuffer(core);
    } else {
        unlinkNode(core, victim, t);
    }
}

void
SlcProtocol::teardownEntry(LineAddr victim, Cycle t)
{
    Entry *found = entries_.find(victim);
    tsoper_assert(found, "teardown of absent entry");
    Entry &e = *found;
    tsoper_assert(!e.zombie, "double teardown");
    e.zombie = true;
    TSOPER_TRACE(Slc, t, "directory eviction of line 0x" << std::hex
                 << victim << std::dec << ": teardown begins");
    trace::instant(trace::Event::SlcDirEvict, invalidCore, t, victim);
    capacity_.evictBufferEnter(victim);
    // Invalidate every valid node; dirty versions freeze their AGs and
    // persist from the side buffer (§III-B).  The hooks may unlink
    // nodes, so walk a snapshot of the list (in a buffer kept across
    // calls, taken so that a nested teardown would get its own).
    std::vector<CoreId> order = std::move(teardownOrder_);
    order.clear();
    for (CoreId cur = e.head; cur != invalidCore;
         cur = node(cur, victim).fwd)
        order.push_back(cur);
    for (CoreId c : order) {
        Node *vp = findNode(c, victim);
        if (!vp || !vp->valid)
            continue;
        Node &v = *vp;
        v.valid = false;
        --e.validNodes;
        mesh_.route(homeNode(victim), coreNode(c), cfg_.ctrlMsgBytes, t);
        if (v.dirty) {
            if (hooks_->dropsInvalidDirty()) {
                llc_.install(victim, v.words, true, t);
                coherenceWb_.inc();
                hooks_->onDirtyEvict(c, victim,
                                     ExposeReason::DirEviction, t);
                unlinkNode(c, victim, t);
            } else {
                hooks_->onDirtyEvict(c, victim, ExposeReason::DirEviction,
                                     t);
            }
        } else if (!hooks_->lineInUnpersistedAg(c, victim)) {
            unlinkNode(c, victim, t);
        }
    }
    teardownOrder_ = std::move(order);
    maybeReleaseEntry(victim, t);
}

void
SlcProtocol::maybeReleaseEntry(LineAddr line, Cycle t)
{
    (void)t;
    const Entry *e = entries_.find(line);
    if (!e || e->head != invalidCore)
        return;
    const bool wasZombie = e->zombie;
    capacity_.release(line);
    if (wasZombie)
        capacity_.evictBufferLeave(line);
    entries_.erase(line);
    wakeWaiters(zombieWaiters_, line);
}

void
SlcProtocol::notifyNodeWaiters(CoreId core, LineAddr line)
{
    wakeWaiters(nodeWaiters_, waiterKey(core, line));
}

void
SlcProtocol::wakeWaiters(LineMap<std::vector<InlineCallback>> &waiters,
                         std::uint64_t key)
{
    auto *waiting = waiters.find(key);
    if (!waiting)
        return;
    auto parked = std::move(*waiting);
    waiters.erase(key);
    for (auto &w : parked)
        eq_.scheduleIn(0, std::move(w));
}

// --------------------------------------------------------------------
// Engine-facing API
// --------------------------------------------------------------------

bool
SlcProtocol::hasNode(CoreId core, LineAddr line) const
{
    return findNode(core, line) != nullptr;
}

bool
SlcProtocol::nodeValid(CoreId core, LineAddr line) const
{
    const Node *n = findNode(core, line);
    return n && n->valid;
}

bool
SlcProtocol::nodeDirty(CoreId core, LineAddr line) const
{
    const Node *n = findNode(core, line);
    return n && n->dirty;
}

CoreId
SlcProtocol::nodeFwd(CoreId core, LineAddr line) const
{
    return node(core, line).fwd;
}

CoreId
SlcProtocol::nodeBwd(CoreId core, LineAddr line) const
{
    return node(core, line).bwd;
}

bool
SlcProtocol::nodeIsTail(CoreId core, LineAddr line) const
{
    return node(core, line).fwd == invalidCore;
}

bool
SlcProtocol::nodeIsPersistTail(CoreId core, LineAddr line) const
{
    CoreId cur = node(core, line).fwd;
    while (cur != invalidCore) {
        const Node *below = findNode(cur, line);
        tsoper_assert(below, "broken sharing list at core ", cur);
        if (below->dirty)
            return false;
        cur = below->fwd;
    }
    return true;
}

void
SlcProtocol::notifyPersistTailUpward(CoreId fromCore, LineAddr line,
                                     Cycle t)
{
    CoreId cur = fromCore;
    while (cur != invalidCore) {
        Node *n = findNode(cur, line);
        if (!n)
            break;
        const CoreId next = n->bwd;
        const bool dirty = n->dirty;
        hooks_->onBecameTail(cur, line, t);
        if (dirty)
            break; // The token stops at the next unpersisted version.
        cur = next;
    }
}

const LineWords &
SlcProtocol::nodeWords(CoreId core, LineAddr line) const
{
    return node(core, line).words;
}

void
SlcProtocol::persistComplete(CoreId core, LineAddr line, Cycle now)
{
    Node &n = node(core, line);
    tsoper_assert(nodeIsPersistTail(core, line),
                  "persist of a version with unpersisted predecessors "
                  "(core=", core, ")");
    tsoper_assert(n.dirty, "persistComplete of a clean version");
    // Parallel writeback: the LLC is updated with the persisted version
    // (§II-B — the LLC is constantly updated while the AGB enqueues).
    writeBack(core, line, n.words, now);
    TSOPER_TRACE(Slc, now, "core " << core << "'s version of line 0x"
                 << std::hex << line << std::dec
                 << " persisted (valid=" << n.valid << ")");
    trace::instant(trace::Event::SlcPersist, core, now, line);
    const CoreId above = n.bwd;
    if (!n.valid || n.evicted) {
        unlinkNode(core, line, now);
    } else {
        n.dirty = false;
        sampleListStats(line);
    }
    // Pass the persist token headwards past clean sharers.
    notifyPersistTailUpward(above, line, now);
}

void
SlcProtocol::releaseCleanMember(CoreId core, LineAddr line, Cycle now)
{
    Node *n = findNode(core, line);
    if (!n)
        return;
    tsoper_assert(!n->dirty, "clean member is dirty");
    if (!n->valid || n->evicted) {
        if (n->fwd == invalidCore) {
            unlinkNode(core, line, now);
        } else {
            // A non-tail invalid clean node unlinks when it becomes
            // tail (the unlink cascade); with its membership gone, any
            // access that stalled on the frozen group may now proceed
            // by splicing it.
            notifyNodeWaiters(core, line);
        }
    }
}

unsigned
SlcProtocol::listLength(LineAddr line) const
{
    const Entry *e = entries_.find(line);
    return e ? e->nodes : 0;
}

unsigned
SlcProtocol::validListLength(LineAddr line) const
{
    const Entry *e = entries_.find(line);
    return e ? e->validNodes : 0;
}

void
SlcProtocol::sampleListStats(LineAddr line)
{
    persistListLen_.add(listLength(line));
    coherenceListLen_.add(validListLength(line));
}

void
SlcProtocol::enterEvictBuffer(CoreId core)
{
    ++evictBufOcc_[static_cast<unsigned>(core)];
    evictBufHist_.add(evictBufOcc_[static_cast<unsigned>(core)]);
}

void
SlcProtocol::leaveEvictBuffer(CoreId core)
{
    tsoper_assert(evictBufOcc_[static_cast<unsigned>(core)] > 0);
    --evictBufOcc_[static_cast<unsigned>(core)];
}

ProtocolComplexity
SlcProtocol::complexity() const
{
    // Stable node states: {valid, dirty, evicted} combinations that can
    // occur (V, VD, VDe, VCe, I-pending-D, I-pending-De, I-clean-member,
    // plus absent) — the paper reports 15 base states for its SLICC SLC
    // vs 25 for MOESI; our transaction-atomic model needs no transient
    // states at all.
    return ProtocolComplexity{"SLC", 8, 4, 14};
}

} // namespace tsoper
