/**
 * @file
 * STIT [Yuan, Xu, Wang & Sha, arXiv:2003.04693]: a coalesced BMT
 * update pipeline.
 *
 * Counters and HMAC entries persist atomically with every data write
 * (so the tree is always recomputable from persisted leaves); the
 * ancestral node updates are *enqueued* into a small on-chip pending
 * queue instead of being written through on the critical path. Writes
 * that share ancestors — the common case under bursty same-subtree
 * traffic — coalesce into existing queue entries, so one eventual
 * NVM write retires many logical updates. The queue drains a few
 * entries per write (MeeConfig::stitDrain) and caps its occupancy at
 * MeeConfig::stitQueueDepth by draining the oldest entries first.
 * The queue itself is volatile: a crash loses only recomputable node
 * updates, never a counter, so every drain is an ordinary crash
 * boundary.
 */

#ifndef AMNT_MEE_STIT_HH
#define AMNT_MEE_STIT_HH

#include <deque>
#include <unordered_set>

#include "mee/protocol.hh"

namespace amnt::mee
{

/** Coalesced pending-queue node persistence. */
class StitStrategy : public ProtocolStrategy
{
  public:
    Protocol id() const override { return Protocol::Stit; }

    CrashProfile
    crashProfile() const override
    {
        return {true, true,
                "counter+hmac commit-atomic; node updates coalesced "
                "in a bounded volatile FIFO, drained post-commit "
                "(recomputable)"};
    }

    Cycle persist(const WriteContext &ctx) override;

    /** Drain a few pending node updates (posted writes). */
    Cycle postCommit(const WriteContext &ctx) override;

    void onMetaEvict(Addr maddr, bool dirty) override;

    void onCrash() override;

    RecoveryReport recover() override;

    /** Current pending-queue occupancy (testing). */
    std::size_t pendingUpdates() const { return pending_.size(); }

    /** True iff @p maddr has a pending coalesced update (testing). */
    bool
    isPending(Addr maddr) const
    {
        return pendingSet_.count(maddr) != 0;
    }

    /** Updates absorbed by coalescing (testing). */
    std::uint64_t coalesced() const
    {
        return stats().get("stit_coalesced");
    }

  protected:
    void onAttach() override;

  private:
    /** Enqueue one node update, coalescing with a pending entry. */
    void enqueue(Addr maddr);

    /** Retire the oldest pending entry with one NVM write. */
    void drainOne();

    /** FIFO of node addresses awaiting their coalesced write. */
    std::deque<Addr> pending_;
    /** Membership index of pending_ for O(1) coalescing. */
    std::unordered_set<Addr> pendingSet_;

    LazyCounter coalesced_{"stit_coalesced"};
    LazyCounter enqueues_{"stit_enqueues"};
    LazyCounter drains_{"stit_drains"};
    LazyCounter evictRetires_{"stit_evict_retires"};
};

} // namespace amnt::mee

#endif // AMNT_MEE_STIT_HH
