#include "mee/stit.hh"

#include <algorithm>

#include "common/log.hh"

namespace amnt::mee
{

void
StitStrategy::onAttach()
{
    if (config().stitQueueDepth == 0)
        fatal("STIT queue depth must be non-zero");
    if (config().stitDrain == 0)
        fatal("STIT drain rate must be non-zero");
}

void
StitStrategy::enqueue(Addr maddr)
{
    if (pendingSet_.count(maddr) != 0) {
        // An update to this node is already queued; the eventual
        // drain writes the node's latest bytes, so the new update
        // rides along for free.
        coalesced_.add(stats());
        return;
    }
    pending_.push_back(maddr);
    pendingSet_.insert(maddr);
    enqueues_.add(stats());
}

void
StitStrategy::drainOne()
{
    const Addr maddr = pending_.front();
    pending_.pop_front();
    pendingSet_.erase(maddr);
    // One posted write retires every update coalesced into the entry
    // (writeThrough persists the node's latest architectural bytes).
    writeThrough(maddr);
    drains_.add(stats());
}

Cycle
StitStrategy::persist(const WriteContext &ctx)
{
    // Counter + HMAC persist with the data write in one parallel
    // burst — the queue never holds a counter, so nothing
    // unrecomputable is ever pending.
    const Addr wt[2] = {map().counterBase() +
                            ctx.counterIdx * kBlockSize,
                        map().hmacAddrOf(ctx.dataAddr)};
    writeThroughMany(wt, 2);

    // The ancestral node updates enter the pipeline instead of the
    // critical path; bursty same-subtree writes coalesce here.
    pathOf(ctx.counterIdx, pathScratch());
    for (const auto &ref : pathScratch())
        enqueue(map().nodeAddrOf(ref));

    return persistCost(1);
}

Cycle
StitStrategy::postCommit(const WriteContext &)
{
    // Steady-state drain, then enforce the occupancy cap. Both run
    // outside the commit group: each drained write is a recomputable
    // node, i.e. an ordinary crash boundary.
    unsigned drains = config().stitDrain;
    while (drains-- > 0 && !pending_.empty())
        drainOne();
    while (pending_.size() > config().stitQueueDepth)
        drainOne();
    return 0; // posted writes, off the critical path
}

void
StitStrategy::onMetaEvict(Addr maddr, bool)
{
    // The victim leaves the cache and the generic eviction path
    // persists its latest bytes; a pending entry for it would only
    // repeat that write, so retire it here (inside the eviction's
    // commit scope).
    if (pendingSet_.erase(maddr) != 0) {
        pending_.erase(
            std::find(pending_.begin(), pending_.end(), maddr));
        evictRetires_.add(stats());
    }
}

void
StitStrategy::onCrash()
{
    // The pending queue is volatile: every queued update is lost,
    // and every one of them is a recomputable node.
    stats().counter("stit_lost_at_crash") = pending_.size();
    pending_.clear();
    pendingSet_.clear();
}

RecoveryReport
StitStrategy::recover()
{
    RecoveryReport report;
    rebuildAndVerify(report);
    report.estimatedMs =
        recoveryMs(report.blocksRead, report.blocksWritten);
    report.detail = "stit: inner-tree recompute from coalesced leaves";
    return report;
}

} // namespace amnt::mee
