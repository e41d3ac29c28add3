/**
 * @file
 * Phoenix [Alwadi, Zubair, Mohaisen & Awad, arXiv:1911.01922]:
 * persistently secure tree of counters with epoch-batched node
 * persistence.
 *
 * Counters and HMAC entries persist atomically with every data write
 * (leaf-style), so the tree is always recomputable from persisted
 * leaves. Inner BMT nodes stay lazy in the metadata cache and are
 * flushed in bulk once per *epoch* (a configurable write count,
 * MeeConfig::phoenixEpoch): between flushes the stale node set in NVM
 * is bounded by one epoch's dirty lines, which is what lets Phoenix
 * restore — rather than fully recompute — the tree after a crash.
 * Each epoch flush is a posted bulk write of recomputable nodes, so
 * every flush boundary is an ordinary crash point.
 */

#ifndef AMNT_MEE_PHOENIX_HH
#define AMNT_MEE_PHOENIX_HH

#include "mee/protocol.hh"

namespace amnt::mee
{

/** Epoch-flushed leaf persistence (tree-of-counters restore). */
class PhoenixStrategy : public ProtocolStrategy
{
  public:
    Protocol id() const override { return Protocol::Phoenix; }

    CrashProfile
    crashProfile() const override
    {
        return {true, true,
                "counter+hmac commit-atomic; tree nodes deferred to "
                "the epoch flush (recomputable, one epoch of "
                "staleness max)"};
    }

    Cycle persist(const WriteContext &ctx) override;

    /** Epoch boundary check: bulk-flush dirty tree nodes. */
    Cycle postCommit(const WriteContext &ctx) override;

    void onCrash() override;

    RecoveryReport recover() override;

    /** Writes since the last epoch flush (testing). */
    std::uint64_t writesThisEpoch() const { return writesThisEpoch_; }

    /** Epoch flushes performed so far (testing). */
    std::uint64_t epochFlushes() const
    {
        return stats().get("phoenix_epoch_flushes");
    }

  protected:
    void onAttach() override;

  private:
    /** Write through every dirty tree node in the metadata cache. */
    void epochFlush();

    std::uint64_t writesThisEpoch_ = 0;

    /** Dirty tree lines latched at the crash (recovery work model). */
    std::uint64_t staleNodesAtCrash_ = 0;

    LazyCounter epochFlushes_{"phoenix_epoch_flushes"};
};

} // namespace amnt::mee

#endif // AMNT_MEE_PHOENIX_HH
