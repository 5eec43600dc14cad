#include "core/atomic_group.hh"

#include "sim/log.hh"

namespace tsoper
{

AgManager::AgManager(CoreId core, unsigned maxLines, Histogram &sizeHist,
                     Histogram &dirtyHist)
    : core_(core), maxLines_(maxLines), sizeHist_(sizeHist),
      dirtyHist_(dirtyHist)
{
}

AtomicGroup &
AgManager::openGroup()
{
    if (queue_.empty() || queue_.back()->frozen) {
        auto ag = std::make_unique<AtomicGroup>();
        ag->id = nextId_++;
        ag->core = core_;
        queue_.push_back(std::move(ag));
    }
    return *queue_.back();
}

bool
AgManager::addDirty(LineAddr line, bool isTail)
{
    AtomicGroup &ag = openGroup();
    ++ag.storeCount;
    if (AtomicGroup **owner = membership_.find(line)) {
        tsoper_assert(*owner == &ag,
                      "store into a line of a non-open AG (core=", core_,
                      ") — the frozen-group store block must prevent this");
        auto mit = ag.members.find(line);
        if (!mit->second) {
            mit->second = true; // Clean member upgraded to dirty.
            ++ag.unbuffered;
        }
        // Reconcile the dependence state: an upgrade may have re-linked
        // the node above unpersisted versions.
        if (isTail)
            ag.waitingTail.erase(line);
        else
            ag.waitingTail.insert(line);
        return false;
    }
    membership_.tryEmplace(line, &ag);
    ag.members.emplace(line, true);
    ++ag.unbuffered;
    if (!isTail)
        ag.waitingTail.insert(line);
    if (ag.size() >= maxLines_) {
        freezeOpen(FreezeReason::SizeCap);
        return true;
    }
    return false;
}

void
AgManager::addClean(LineAddr line, bool isTail)
{
    AtomicGroup &ag = openGroup();
    if (AtomicGroup **owner = membership_.find(line)) {
        // Already a member (clean or dirty) of the open AG.  Membership
        // in a frozen AG is impossible here: a frozen clean member's
        // node would be invalid and the re-access path blocks until the
        // group clears.
        tsoper_assert(*owner == &ag, "read dependence on a line of a "
                      "frozen AG (core=", core_, ")");
        // Reconcile the dependence (the node may have been re-linked).
        if (isTail)
            ag.waitingTail.erase(line);
        else
            ag.waitingTail.insert(line);
        return;
    }
    membership_.tryEmplace(line, &ag);
    ag.members.emplace(line, false);
    if (!isTail)
        ag.waitingTail.insert(line);
    if (ag.size() >= maxLines_)
        freezeOpen(FreezeReason::SizeCap);
}

AtomicGroup *
AgManager::groupOf(LineAddr line)
{
    AtomicGroup **owner = membership_.find(line);
    return owner ? *owner : nullptr;
}

const AtomicGroup *
AgManager::groupOf(LineAddr line) const
{
    AtomicGroup *const *owner = membership_.find(line);
    return owner ? *owner : nullptr;
}

bool
AgManager::inFrozenGroup(LineAddr line) const
{
    const AtomicGroup *ag = groupOf(line);
    return ag && ag->frozen;
}

AtomicGroup *
AgManager::freezeOpen(FreezeReason why)
{
    if (queue_.empty() || queue_.back()->frozen)
        return nullptr;
    AtomicGroup &ag = *queue_.back();
    ag.frozen = true;
    ag.freezeReason = why;
    sizeHist_.add(ag.size());
    dirtyHist_.add(ag.dirtyCount());
    return &ag;
}

void
AgManager::becameTail(LineAddr line)
{
    AtomicGroup *ag = groupOf(line);
    if (!ag)
        return;
    ag->waitingTail.erase(line);
}

void
AgManager::releaseBufferedLine(AtomicGroup &ag, LineAddr line)
{
    if (AtomicGroup **owner = membership_.find(line); owner && *owner == &ag)
        membership_.erase(line);
}

AtomicGroup *
AgManager::oldest()
{
    return queue_.empty() ? nullptr : queue_.front().get();
}

std::vector<LineAddr>
AgManager::retireOldest()
{
    tsoper_assert(!queue_.empty(), "retire with no AGs");
    AtomicGroup &ag = *queue_.front();
    tsoper_assert(ag.frozen && ag.unbuffered == 0,
                  "retiring an unpersisted AG");
    std::vector<LineAddr> clean;
    for (const auto &[line, dirty] : ag.members) {
        // Dirty lines may already have released their membership at
        // buffering time, and the line may meanwhile belong to a newer
        // AG — only erase our own entry.
        if (AtomicGroup **owner = membership_.find(line);
            owner && *owner == &ag)
            membership_.erase(line);
        if (!dirty)
            clean.push_back(line);
    }
    queue_.pop_front();
    return clean;
}

} // namespace tsoper
