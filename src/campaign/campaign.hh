/**
 * @file
 * Scenario campaigns: registry-parameterized measurement-and-
 * verification suites composed from the existing building blocks —
 * WorkloadKind generators (sim/workload.hh), FaultDomain crash
 * injection (fault/fault.hh), and the Histogram/StatRegistry
 * machinery (common/stats.hh, obs/registry.hh).
 *
 * Three campaigns, each run over every protocol in the registry
 * (core/protocol_registry.hh) with zero per-protocol exemptions:
 *
 *  - adversarial:      metadata-cache thrash, counter-overflow
 *                      forcing, tamper-while-running and tamper-at-
 *                      rest legs, and a crash at an adversarially
 *                      chosen persist boundary, judged against each
 *                      protocol's declared CrashProfile.
 *  - multi_tenant:     co-scheduled generators on one engine with
 *                      per-tenant key domains and address partitions
 *                      (MeeConfig::tenantKeySeeds); solo-baseline vs
 *                      co-run latency percentiles per tenant plus a
 *                      ciphertext-splice isolation probe.
 *  - online_recovery:  crash mid-workload, recover, then serve
 *                      traffic while the recovery traffic drains —
 *                      degraded-mode latency histograms per protocol.
 *
 * Determinism contract (locked by tests/campaign/): a campaign's
 * report depends only on its CampaignConfig. All randomness flows
 * through per-phase Rng/Workload instances seeded from
 * CampaignConfig::seed, rows are computed on independent simulators
 * fanned out with sweep::parallelFor and assembled in registry
 * order, and no wall-clock values enter the report — so toJson() is
 * byte-identical at any thread count, and the checked-in
 * results/campaign_<name>.json artifacts are pinned like the golden
 * figures.
 */

#ifndef AMNT_CAMPAIGN_CAMPAIGN_HH
#define AMNT_CAMPAIGN_CAMPAIGN_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "mee/engine.hh"

namespace amnt::campaign
{

/** One campaign's knobs; the whole report is a function of these. */
struct CampaignConfig
{
    std::uint64_t seed = 2026;

    /** Protected-data size; must split into tenant page-aligned
     *  slices (tenants * 4 KB divides dataBytes). */
    std::uint64_t dataBytes = 2ull << 20;

    /** Metadata-cache size; small so thrash phases actually thrash. */
    std::uint64_t metaCacheBytes = 4 * 1024;

    /** Per-phase operation budget. */
    unsigned ops = 2400;

    /** Co-scheduled tenants of the multi_tenant campaign. */
    unsigned tenants = 4;

    double writeFraction = 0.6;

    /** Boundaries between arming and the injected crash. */
    unsigned crashAfter = 37;

    /** sweep::parallelFor workers; 0 = AMNT_SWEEP_THREADS. */
    unsigned threads = 0;

    /** Restrict to one protocol (CLI debugging; pins use all). */
    std::optional<mee::Protocol> only;

    /** Keep raw latency samples per phase (conformance tests). */
    bool collectSamples = false;
};

/** The checked-in artifact geometry (results/campaign_*.json). */
CampaignConfig pinnedConfig();

/** Canonical latency-histogram geometry every campaign phase uses. */
Histogram latencyHistogram();

/** Key seed of tenant @p tenant (tests rebuild tenant suites). */
std::uint64_t tenantKeySeed(const CampaignConfig &cfg, unsigned tenant);

/** One protocol's metrics, in emission (insertion) order. */
struct ProtocolRow
{
    mee::Protocol protocol{};

    /** key -> canonically formatted value (kind-tagged: see u64). */
    std::vector<std::pair<std::string, std::string>> metrics;

    /** Raw per-phase samples when CampaignConfig::collectSamples. */
    std::vector<std::pair<std::string, std::vector<double>>> samples;

    void u64(const std::string &key, std::uint64_t v);
    void f64(const std::string &key, double v); ///< %.9g
    void boolean(const std::string &key, bool v);
    void str(const std::string &key, const std::string &v);

    /** Formatted value, or nullptr when the key was never set. */
    const std::string *find(const std::string &key) const;

    /** Numeric value of @p key; fatal when missing or non-numeric. */
    double num(const std::string &key) const;

    /** Raw samples recorded under @p name (nullptr when absent). */
    const std::vector<double> *sampleSet(const std::string &name) const;
};

/** A full campaign result: one row per protocol, registry order. */
struct CampaignReport
{
    std::string name;
    unsigned version = 1;
    CampaignConfig config;
    std::vector<ProtocolRow> rows;

    /** Row for @p p; fatal when the protocol has no row. */
    const ProtocolRow &row(mee::Protocol p) const;

    /** Canonical artifact bytes (results/campaign_<name>.json). */
    std::string toJson() const;
};

CampaignReport runAdversarial(const CampaignConfig &cfg);
CampaignReport runMultiTenant(const CampaignConfig &cfg);
CampaignReport runOnlineRecovery(const CampaignConfig &cfg);

/** Registered campaign names, artifact order. */
const std::vector<std::string> &campaignNames();

/** Run the named campaign; fatal on an unknown name. */
CampaignReport runCampaign(const std::string &name,
                           const CampaignConfig &cfg);

} // namespace amnt::campaign

#endif // AMNT_CAMPAIGN_CAMPAIGN_HH
