#include "coherence/mesi.hh"

#include <algorithm>
#include <utility>

#include "sim/log.hh"

namespace tsoper
{

MesiProtocol::MesiProtocol(const SystemConfig &cfg, EventQueue &eq,
                           Mesh &mesh, Llc &llc, Nvm &nvm,
                           StatsRegistry &stats)
    : DirectoryController(cfg, eq, mesh, llc, nvm, stats, "mesi"),
      txns_(stats)
{
}

MesiProtocol::Node *
MesiProtocol::loadHit(CoreId core, LineAddr line)
{
    Node *n = findNode(core, line);
    if (!n || n->st == St::I)
        return nullptr;
    hits_.inc();
    arrays_[static_cast<unsigned>(core)].touch(line);
    return n;
}

bool
MesiProtocol::storeHit(CoreId core, Addr addr, StoreId store)
{
    const LineAddr line = lineOf(addr);
    Node *n = findNode(core, line);
    if (!n || (n->st != St::M && n->st != St::E))
        return false;
    hits_.inc();
    arrays_[static_cast<unsigned>(core)].touch(line);
    n->st = St::M;
    commitStore(*n, core, addr, store, eq_.now());
    return true;
}

std::optional<Cycle>
MesiProtocol::loadTxn(CoreId core, Addr addr, LoadDone done, bool primary,
                      Cycle t)
{
    const LineAddr line = lineOf(addr);
    if (Node *n = findNode(core, line); n && n->st != St::I) {
        // Raced: an earlier queued transaction already fetched it.
        mshr_.complete(core, line, primary, done, t + dirLatency_,
                 n->words[wordOf(addr)]);
        return t + dirLatency_;
    }
    if (auto victim = capacity_.allocate(line))
        teardownEntry(*victim, t);
    Entry &e = entries_[line];
    if (e.owner != invalidCore) {
        // Owner forward.  The downgrade commits now — the directory's
        // serialization instant — while the forward request and data
        // reply travel as messages; the line stays blocked until the
        // reply lands (conventional blocking directory).
        const CoreId o = e.owner;
        Node &on = node(o, line);
        const bool wasM = (on.st == St::M);
        Cycle exposeReady = t;
        if (wasM) {
            exposeReady = hooks_->onDirtyExpose(o, line, core, false, t);
            llc_.install(line, on.words, true, t);
            coherenceWb_.inc();
        }
        const Cycle floor = std::max(on.dataReadyAt, exposeReady);
        const LineWords words = on.words;
        on.st = St::S;
        e.sharers = bit(o) | bit(core);
        e.owner = invalidCore;
        install(core, line, St::S, words, t);
        forwardReply(o, core, line, t, floor, wasM, finishOnData(line),
                     primary, std::move(done), words[wordOf(addr)]);
        return std::nullopt;
    }
    if (e.sharers != 0 && !llc_.contains(line)) {
        // LLC lost the shared copy; fetch from any sharer.
        const CoreId s = firstSharer(e);
        const Node &sn = node(s, line);
        const Cycle floor = sn.dataReadyAt;
        const LineWords words = sn.words;
        llc_.install(line, words, false, t);
        e.sharers |= bit(core);
        install(core, line, St::S, words, t);
        forwardReply(s, core, line, t, floor, false, finishOnData(line),
                     primary, std::move(done), words[wordOf(addr)]);
        return std::nullopt;
    }
    // Fill: a shared copy from the LLC, or from memory in E state
    // (exclusive clean).  Contents resolve now; the LLC bank pipe (and
    // an NVM read behind it) supply the timing.
    bool fromNvm = false;
    const LineWords words = readMemory(line, t, &fromNvm);
    if (fromNvm)
        e.owner = core;
    else
        e.sharers |= bit(core);
    install(core, line, fromNvm ? St::E : St::S, words, t);
    replyAfterFill(core, line, t, fromNvm, freeOnData, primary,
                   std::move(done), words[wordOf(addr)]);
    return std::nullopt;
}

std::optional<Cycle>
MesiProtocol::storeTxn(CoreId core, Addr addr, StoreId store,
                       StoreDone done, bool primary, Cycle t)
{
    const LineAddr line = lineOf(addr);
    if (!hooks_->storeMayCommit(core, line)) {
        hooks_->addStoreWaiter(core, line,
                               [this, addr, store, core, primary,
                                done = std::move(done)]() mutable {
            issueStore(core, addr, store, std::move(done), primary);
        });
        return t + dirLatency_;
    }
    if (Node *n = findNode(core, line);
        n && (n->st == St::M || n->st == St::E)) {
        // Raced: already exclusive.
        n->st = St::M;
        commitStore(*n, core, addr, store, t);
        mshr_.complete(core, line, primary, done, t + dirLatency_);
        return t + dirLatency_;
    }
    if (auto victim = capacity_.allocate(line))
        teardownEntry(*victim, t);
    Entry &e = entries_[line];
    Node *mine = findNode(core, line);
    if (e.owner != invalidCore && e.owner != core) {
        // Owner invalidation + data forward, as one message chain.
        const CoreId o = e.owner;
        Node &on = node(o, line);
        Cycle exposeReady = t;
        if (on.st == St::M)
            exposeReady = hooks_->onDirtyExpose(o, line, core, true, t);
        const Cycle floor = std::max(on.dataReadyAt, exposeReady);
        const LineWords words = on.words;
        arrays_[static_cast<unsigned>(o)].erase(line);
        nodes_[static_cast<unsigned>(o)].erase(line);
        e.sharers = 0;
        e.owner = core;
        install(core, line, St::M, words, t);
        commitStore(node(core, line), core, addr, store, t);
        forwardReply(o, core, line, t, floor, false, finishOnData(line),
                     primary, std::move(done));
        return std::nullopt;
    }
    if (mine && mine->st == St::S) {
        // S -> M upgrade: the SB drains when the last invalidation ack
        // and the home's permission grant have landed.
        upgrades_.inc();
        const TxnTable::Id id =
            takeExclusive(line, core, t, primary, std::move(done));
        send(homeNode(line), coreNode(core), cfg_.ctrlMsgBytes, t,
             [this, id] { txns_.legDone(id, eq_.now()); });
        mine->st = St::M;
        insertResident(core, line, t);
        commitStore(*mine, core, addr, store, t);
        capacity_.setPinned(line, true);
        return std::nullopt;
    }
    misses_.inc();
    if (e.sharers != 0 || llc_.contains(line)) {
        // Data from the LLC (or a sharer when the LLC lost the copy)
        // plus one invalidation ack per sharer: the data leg and the
        // acks race, and the TxnTable folds their arrivals.
        const LineWords words = llc_.contains(line)
                                    ? llc_.lookup(line)
                                    : node(firstSharer(e), line).words;
        const TxnTable::Id id =
            takeExclusive(line, core, t, primary, std::move(done));
        install(core, line, St::M, words, t);
        commitStore(node(core, line), core, addr, store, t);
        fillTiming(line, t, false, [this, line, core, id](Cycle at) {
            send(homeNode(line), coreNode(core),
                 lineBytes + cfg_.ctrlMsgBytes, at,
                 [this, id] { txns_.legDone(id, eq_.now()); });
        });
        return std::nullopt;
    }
    // Memory fill straight to M.
    bool fromNvm = false;
    const LineWords words = readMemory(line, t, &fromNvm);
    e.sharers = 0;
    e.owner = core;
    install(core, line, St::M, words, t);
    commitStore(node(core, line), core, addr, store, t);
    replyAfterFill(core, line, t, fromNvm, freeOnData, primary,
                   std::move(done));
    return std::nullopt;
}

void
MesiProtocol::install(CoreId core, LineAddr line, St st,
                      const LineWords &words, Cycle t)
{
    Node &n = nodes_[static_cast<unsigned>(core)][line];
    n.st = st;
    n.words = words;
    n.dataReadyAt = t; // Finalized before release by the reply leg.
    insertResident(core, line, t);
    capacity_.setPinned(line, true);
}

CoreId
MesiProtocol::firstSharer(const Entry &e) const
{
    for (CoreId c = 0; c < static_cast<CoreId>(cfg_.numCores); ++c)
        if (e.sharers & bit(c))
            return c;
    tsoper_panic("no sharer to fetch from");
}

TxnTable::Id
MesiProtocol::takeExclusive(LineAddr line, CoreId core, Cycle t,
                            bool primary, StoreDone done)
{
    Entry &e = entries_[line];
    unsigned numInv = 0;
    for (CoreId c = 0; c < static_cast<CoreId>(cfg_.numCores); ++c)
        if ((e.sharers & bit(c)) && c != core)
            ++numInv;
    const TxnTable::Id id = txns_.begin(
        numInv + 1,
        [this, line, core, primary,
         done = std::move(done)](Cycle readyAt) mutable {
            if (Node *n = findNode(core, line))
                n->dataReadyAt = std::max(n->dataReadyAt, readyAt);
            mshr_.complete(core, line, primary, done, readyAt);
            finishTxn(line, readyAt);
        });
    for (CoreId c = 0; c < static_cast<CoreId>(cfg_.numCores); ++c) {
        if (!(e.sharers & bit(c)) || c == core)
            continue;
        // State commits now; the inv and its ack are timing legs.
        arrays_[static_cast<unsigned>(c)].erase(line);
        nodes_[static_cast<unsigned>(c)].erase(line);
        send(homeNode(line), coreNode(c), cfg_.ctrlMsgBytes, t,
             [this, c, core, id] {
                 send(coreNode(c), coreNode(core), cfg_.ctrlMsgBytes,
                      eq_.now(),
                      [this, id] { txns_.legDone(id, eq_.now()); });
             });
    }
    e.sharers = 0;
    e.owner = core;
    return id;
}

void
MesiProtocol::handleVictim(CoreId core, LineAddr victim, Cycle t)
{
    Node &v = node(core, victim);
    Entry &e = entries_[victim];
    if (v.st == St::M) {
        writeBack(core, victim, v.words, t);
        hooks_->onDirtyEvict(core, victim, ExposeReason::Eviction, t);
    } else {
        // Silent clean eviction; notify the directory (traffic only).
        mesh_.route(coreNode(core), homeNode(victim), cfg_.ctrlMsgBytes,
                    t);
    }
    if (e.owner == core)
        e.owner = invalidCore;
    e.sharers &= ~bit(core);
    nodes_[static_cast<unsigned>(core)].erase(victim);
    maybeReleaseEntry(victim);
}

void
MesiProtocol::teardownEntry(LineAddr victim, Cycle t)
{
    Entry &e = entries_[victim];
    if (e.owner != invalidCore) {
        const CoreId o = e.owner;
        Node &on = node(o, victim);
        if (on.st == St::M) {
            writeBack(o, victim, on.words, t);
            hooks_->onDirtyEvict(o, victim, ExposeReason::DirEviction, t);
        }
        arrays_[static_cast<unsigned>(o)].erase(victim);
        nodes_[static_cast<unsigned>(o)].erase(victim);
        e.owner = invalidCore;
    }
    for (CoreId c = 0; c < static_cast<CoreId>(cfg_.numCores); ++c) {
        if (!(e.sharers & bit(c)))
            continue;
        mesh_.route(homeNode(victim), coreNode(c), cfg_.ctrlMsgBytes, t);
        arrays_[static_cast<unsigned>(c)].erase(victim);
        nodes_[static_cast<unsigned>(c)].erase(victim);
    }
    e.sharers = 0;
    entries_.erase(victim);
    capacity_.release(victim);
}

void
MesiProtocol::maybeReleaseEntry(LineAddr line)
{
    const Entry *e = entries_.find(line);
    if (e && e->owner == invalidCore && e->sharers == 0) {
        entries_.erase(line);
        capacity_.release(line);
    }
}

bool
MesiProtocol::isModified(CoreId core, LineAddr line) const
{
    const Node *n = findNode(core, line);
    return n && n->st == St::M;
}

const LineWords &
MesiProtocol::lineWords(CoreId core, LineAddr line) const
{
    return node(core, line).words;
}

void
MesiProtocol::flushLine(CoreId core, LineAddr line, Cycle earliest,
                        std::function<void(Cycle, bool)> done)
{
    // LLC exclusion: the write into the LLC must wait for the pending
    // NVM persist of the line's previous version (Definition 2).
    const Cycle start = std::max({earliest, eq_.now(),
                                  llc_.persistPendingUntil(line)});
    eq_.schedule(start, [this, core, line, done] {
        Node *n = findNode(core, line);
        if (!n || n->st != St::M) {
            done(eq_.now(), false);
            return;
        }
        const Cycle at = writeBack(core, line, n->words, eq_.now());
        n->st = St::E;
        done(at, true);
    });
}

ProtocolComplexity
MesiProtocol::complexity() const
{
    return ProtocolComplexity{"MESI", 4, 4, 12};
}

} // namespace tsoper
