/**
 * @file
 * Internal plumbing shared by the campaign suites: an engine-level
 * driver (one NvmDevice + FaultDomain + MemoryEngine per protocol
 * row, like the flat-engine target of the crash oracle's harness in
 * fault/crash_schedule.cc) plus the deterministic write-pattern and
 * per-protocol seed helpers.
 */

#ifndef AMNT_CAMPAIGN_HARNESS_HH
#define AMNT_CAMPAIGN_HARNESS_HH

#include <functional>
#include <memory>

#include "campaign/campaign.hh"
#include "fault/fault.hh"
#include "mem/nvm_device.hh"
#include "sim/workload.hh"

namespace amnt::campaign
{

/** Base MeeConfig every campaign engine starts from. */
mee::MeeConfig baseMee(const CampaignConfig &cfg);

/** Per-protocol seed salt: row results are independent of which
 *  other protocols run (CampaignConfig::only must not change rows). */
std::uint64_t protoSalt(const CampaignConfig &cfg, mee::Protocol p);

/** Deterministic plaintext for a write to @p addr. */
mem::Block patternBlock(Addr addr, std::uint64_t salt);

/**
 * One protocol's simulator for a campaign row: the device, a fault
 * domain in Counting mode (so armAfter can crash mid-workload), and
 * the engine. rebuildFresh() models a cold service restart after an
 * unrecoverable crash (the volatile baseline's contract: data gone,
 * fresh device, fresh engine).
 */
struct Harness
{
    Harness(mee::Protocol p, const mee::MeeConfig &mee_cfg);

    /** Map a generator vaddr into [base, base+span), block-aligned. */
    static Addr place(Addr vaddr, Addr base, std::uint64_t span);

    /**
     * Issue one reference against the engine; returns the simulated
     * latency. Writes carry patternBlock(paddr, salt). May throw
     * fault::CrashInjected while the domain is armed.
     */
    Cycle access(const sim::MemRef &ref, Addr base, std::uint64_t span,
                 std::uint64_t salt);

    /** Tear down and rebuild device + engine from scratch. */
    void rebuildFresh();

    mee::Protocol protocol;
    mee::MeeConfig mee;
    fault::FaultDomain domain;
    std::unique_ptr<mem::NvmDevice> nvm;
    std::unique_ptr<mee::MemoryEngine> engine;
};

/**
 * Shared runner: one row per registry protocol (or cfg.only),
 * computed on independent simulators via sweep::parallelFor with
 * cfg.threads workers, assembled in registry order.
 */
CampaignReport runPerProtocol(
    const char *name, const CampaignConfig &cfg,
    const std::function<void(mee::Protocol, const CampaignConfig &,
                             ProtocolRow &)> &fill);

} // namespace amnt::campaign

#endif // AMNT_CAMPAIGN_HARNESS_HH
