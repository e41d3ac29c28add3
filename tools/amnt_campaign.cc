/**
 * amnt_campaign — scenario-campaign driver.
 *
 *   amnt_campaign [--campaign=NAME|all] [--protocol=NAME]
 *                 [--json=PATH] [--seed=N] [--ops=N] [--data-mb=N]
 *                 [--tenants=N] [--crash-after=N] [--threads=N]
 *   amnt_campaign --list
 *
 * With no flags, runs every campaign at the pinned geometry over all
 * nine registry protocols and rewrites results/campaign_<name>.json —
 * the checked-in artifacts (pinned by tests/campaign/, like the
 * golden figures). The reports are seeded-deterministic: the bytes
 * are identical at any --threads / AMNT_SWEEP_THREADS value.
 *
 * --json names a file when a single campaign is selected, otherwise
 * the directory receiving campaign_<name>.json files (default:
 * "results"). --protocol restricts the report to one protocol (a
 * debugging aid; pinned artifacts always carry all rows).
 *
 * AMNT_SWEEP_THREADS applies when --threads is 0.
 */

#include <sys/stat.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "common/env.hh"
#include "common/log.hh"
#include "core/protocol_registry.hh"

using namespace amnt;

namespace
{

struct Options
{
    std::string campaign = "all";
    std::string protocol;
    std::string json = "results";
    campaign::CampaignConfig cfg = campaign::pinnedConfig();
    bool list = false;
};

/** --flag=N stored in an `unsigned` field. */
unsigned
flagUnsigned(const char *flag, const std::string &text)
{
    return static_cast<unsigned>(flagU64(
        flag, text.c_str(), std::numeric_limits<unsigned>::max()));
}

/** Largest --data-mb whose byte count (`<< 20`) fits in 64 bits. */
constexpr std::uint64_t kMaxDataMb = (1ull << 44) - 1;

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto take = [&](const char *flag, std::string &out) {
            const std::string eq = std::string(flag) + "=";
            if (arg.rfind(eq, 0) != 0)
                return false;
            out = arg.substr(eq.size());
            return true;
        };
        std::string num;
        if (arg == "--list") {
            o.list = true;
            continue;
        }
        if (take("--campaign", o.campaign) ||
            take("--protocol", o.protocol) || take("--json", o.json))
            continue;
        if (take("--seed", num)) {
            o.cfg.seed = flagU64("--seed", num.c_str());
            continue;
        }
        if (take("--ops", num)) {
            o.cfg.ops = flagUnsigned("--ops", num);
            continue;
        }
        if (take("--data-mb", num)) {
            o.cfg.dataBytes = flagU64("--data-mb", num.c_str(),
                                      kMaxDataMb)
                              << 20;
            continue;
        }
        if (take("--tenants", num)) {
            o.cfg.tenants = flagUnsigned("--tenants", num);
            continue;
        }
        if (take("--crash-after", num)) {
            o.cfg.crashAfter = flagUnsigned("--crash-after", num);
            continue;
        }
        if (take("--threads", num)) {
            o.cfg.threads = flagUnsigned("--threads", num);
            continue;
        }
        fatal("unknown option '%s'", arg.c_str());
    }
    if (!o.protocol.empty())
        o.cfg.only = core::protocolByName(o.protocol);
    return o;
}

void
writeReport(const campaign::CampaignReport &report,
            const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    if (slash != std::string::npos && slash > 0)
        ::mkdir(path.substr(0, slash).c_str(), 0755);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot write campaign report to '%s'", path.c_str());
    const std::string json = report.toJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", path.c_str(),
                report.rows.size());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    if (o.list) {
        for (const std::string &n : campaign::campaignNames())
            std::printf("%s\n", n.c_str());
        return 0;
    }
    const std::vector<std::string> names =
        o.campaign == "all"
            ? campaign::campaignNames()
            : std::vector<std::string>{o.campaign};
    const bool single = names.size() == 1;
    for (const std::string &name : names) {
        const campaign::CampaignReport report =
            campaign::runCampaign(name, o.cfg);
        // Single campaign: --json is the file. Multiple: a directory.
        const std::string path =
            single && o.json.find(".json") != std::string::npos
                ? o.json
                : o.json + "/campaign_" + name + ".json";
        writeReport(report, path);
    }
    return 0;
}
