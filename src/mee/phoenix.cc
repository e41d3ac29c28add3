#include "mee/phoenix.hh"

#include <unordered_set>
#include <vector>

#include "common/log.hh"

namespace amnt::mee
{

void
PhoenixStrategy::onAttach()
{
    if (config().phoenixEpoch == 0)
        fatal("Phoenix epoch must be non-zero");
}

Cycle
PhoenixStrategy::persist(const WriteContext &ctx)
{
    // Leaf-style: counter + HMAC persist with the data write in one
    // parallel burst; the inner tree stays lazy until the epoch ends.
    const Addr wt[2] = {map().counterBase() +
                            ctx.counterIdx * kBlockSize,
                        map().hmacAddrOf(ctx.dataAddr)};
    writeThroughMany(wt, 2);
    return persistCost(1);
}

Cycle
PhoenixStrategy::postCommit(const WriteContext &)
{
    // The epoch flush runs between writes, outside the commit group:
    // its node persists are recomputable, so each is an ordinary
    // crash boundary.
    if (++writesThisEpoch_ >= config().phoenixEpoch) {
        writesThisEpoch_ = 0;
        epochFlush();
    }
    return 0; // posted bulk writes, off the critical path
}

void
PhoenixStrategy::epochFlush()
{
    // A write dirties only its leaf tree node; ancestors change
    // architecturally but stay clean in the cache until a child is
    // evicted. The flush therefore persists the ancestor closure of
    // every dirty node — otherwise upper levels would stay stale
    // across epochs and the restore bound would be a lie.
    std::unordered_set<Addr> seen;
    std::vector<Addr> flush;
    mcache().forEachLine([&](Addr addr, bool dirty) {
        if (!dirty || map().classify(addr) != mem::Region::Tree)
            return;
        bmt::NodeRef ref = map().nodeOfAddr(addr);
        while (true) {
            const Addr naddr = map().nodeAddrOf(ref);
            if (!seen.insert(naddr).second)
                break; // this path is already queued
            flush.push_back(naddr);
            if (ref.level == 1)
                break;
            ref = bmt::Geometry::parentOf(ref);
        }
    });
    writeThroughMany(flush.data(), flush.size());
    epochFlushes_.add(stats());
}

void
PhoenixStrategy::onCrash()
{
    // Latch how many tree nodes were stale at power-off — at most one
    // epoch's worth of dirtied paths, which bounds the restore below.
    staleNodesAtCrash_ = 0;
    tree().forEachNode([&](bmt::NodeRef ref, const mem::Block &b) {
        mem::Block persisted;
        nvm().peek(map().nodeAddrOf(ref), persisted);
        if (persisted != b)
            ++staleNodesAtCrash_;
    });
    writesThisEpoch_ = 0;
}

RecoveryReport
PhoenixStrategy::recover()
{
    RecoveryReport report;

    // Functional verification: rebuild from the (always current)
    // persisted counters and compare with the NV root register.
    RecoveryReport scratch;
    rebuildAndVerify(scratch);
    report.success = scratch.success;
    report.countersRecovered = scratch.countersRecovered;

    // Work model: only nodes dirtied since the last epoch flush were
    // stale, so the restore reads the persisted counters and rewrites
    // just that epoch-bounded node set.
    report.nodesRecomputed = staleNodesAtCrash_;
    report.blocksRead = report.countersRecovered + staleNodesAtCrash_;
    report.blocksWritten = staleNodesAtCrash_;
    report.estimatedMs =
        recoveryMs(report.blocksRead, report.blocksWritten);
    report.detail = "phoenix: epoch-bounded node restore";
    return report;
}

} // namespace amnt::mee
