#include "campaign/campaign.hh"

#include <cstdio>
#include <cstdlib>

#include "common/log.hh"

namespace amnt::campaign
{

namespace
{

std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

} // namespace

CampaignConfig
pinnedConfig()
{
    // The checked-in artifact geometry: the pin test and the CLI's
    // default regeneration path must agree byte-for-byte.
    return CampaignConfig{};
}

Histogram
latencyHistogram()
{
    // Log bins over [1, 2^21) cycles: covers a metadata-cache hit
    // (~tens of cycles) through re-encryption bursts and recovery
    // contention (tens of thousands) with relative precision.
    return Histogram(1.0, 2097152.0, 96, Histogram::Scale::Log);
}

std::uint64_t
tenantKeySeed(const CampaignConfig &cfg, unsigned tenant)
{
    // Any injective, seed-dependent derivation works; tests rebuild
    // tenant suites from this to probe cross-tenant verification.
    return cfg.seed * 0x9e3779b97f4a7c15ull + 104729ull * (tenant + 1);
}

void
ProtocolRow::u64(const std::string &key, std::uint64_t v)
{
    metrics.emplace_back(key, std::to_string(v));
}

void
ProtocolRow::f64(const std::string &key, double v)
{
    metrics.emplace_back(key, formatDouble(v));
}

void
ProtocolRow::boolean(const std::string &key, bool v)
{
    metrics.emplace_back(key, v ? "true" : "false");
}

void
ProtocolRow::str(const std::string &key, const std::string &v)
{
    metrics.emplace_back(key, "\"" + v + "\"");
}

const std::string *
ProtocolRow::find(const std::string &key) const
{
    for (const auto &kv : metrics) {
        if (kv.first == key)
            return &kv.second;
    }
    return nullptr;
}

double
ProtocolRow::num(const std::string &key) const
{
    const std::string *v = find(key);
    if (v == nullptr)
        fatal("campaign row for %s has no metric '%s'",
              mee::protocolName(protocol), key.c_str());
    if (*v == "true")
        return 1.0;
    if (*v == "false")
        return 0.0;
    char *end = nullptr;
    const double d = std::strtod(v->c_str(), &end);
    if (end == v->c_str())
        fatal("campaign metric '%s' is not numeric: %s", key.c_str(),
              v->c_str());
    return d;
}

const std::vector<double> *
ProtocolRow::sampleSet(const std::string &name) const
{
    for (const auto &kv : samples) {
        if (kv.first == name)
            return &kv.second;
    }
    return nullptr;
}

const ProtocolRow &
CampaignReport::row(mee::Protocol p) const
{
    for (const ProtocolRow &r : rows) {
        if (r.protocol == p)
            return r;
    }
    fatal("campaign '%s' has no row for protocol %s", name.c_str(),
          mee::protocolName(p));
}

std::string
CampaignReport::toJson() const
{
    // Canonical artifact bytes: fixed key order, %.9g doubles, one
    // row per line. Only simulated values enter — never wall-clock,
    // never the thread count — so the bytes are identical at any
    // AMNT_SWEEP_THREADS (pinned by tests/campaign/).
    std::string out = "{\n";
    out += "  \"campaign\": \"" + name + "\",\n";
    out += "  \"version\": " + std::to_string(version) + ",\n";
    out += "  \"geometry\": {\"seed\": " + std::to_string(config.seed);
    out += ", \"data_bytes\": " + std::to_string(config.dataBytes);
    out += ", \"meta_cache_bytes\": " +
           std::to_string(config.metaCacheBytes);
    out += ", \"ops\": " + std::to_string(config.ops);
    out += ", \"tenants\": " + std::to_string(config.tenants);
    out += ", \"write_fraction\": " + formatDouble(config.writeFraction);
    out += ", \"crash_after\": " + std::to_string(config.crashAfter);
    out += "},\n";
    out += "  \"rows\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ProtocolRow &r = rows[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"protocol\": \"";
        out += mee::protocolName(r.protocol);
        out += "\"";
        for (const auto &[key, value] : r.metrics)
            out += ", \"" + key + "\": " + value;
        out += "}";
    }
    out += "\n  ]\n}\n";
    return out;
}

const std::vector<std::string> &
campaignNames()
{
    static const std::vector<std::string> names = {
        "adversarial", "multi_tenant", "online_recovery"};
    return names;
}

CampaignReport
runCampaign(const std::string &name, const CampaignConfig &cfg)
{
    if (name == "adversarial")
        return runAdversarial(cfg);
    if (name == "multi_tenant")
        return runMultiTenant(cfg);
    if (name == "online_recovery")
        return runOnlineRecovery(cfg);
    std::string all;
    for (const std::string &n : campaignNames())
        all += (all.empty() ? "" : ", ") + n;
    fatal("unknown campaign '%s' (one of: %s)", name.c_str(),
          all.c_str());
}

} // namespace amnt::campaign
