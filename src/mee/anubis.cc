#include "mee/anubis.hh"

namespace amnt::mee
{

RecoveryReport
AnubisStrategy::recover()
{
    RecoveryReport report;

    // Restore every shadowed block: these are precisely the blocks
    // whose NVM copies may be stale (they were cached, possibly
    // dirty, at the crash). After restoration NVM is fully current.
    // The seal MACs for the whole table go out in batched bursts.
    const std::uint64_t entries = shadow_.size();
    std::vector<Addr> addrs;
    std::vector<const mem::Block *> blocks;
    addrs.reserve(shadow_.size());
    blocks.reserve(shadow_.size());
    for (const auto &kv : shadow_) {
        addrs.push_back(kv.first);
        blocks.push_back(&kv.second);
    }
    persistBytesMany(addrs.data(), blocks.data(), addrs.size());

    // Functional verification: rebuild and compare with the NV root.
    RecoveryReport scratch;
    rebuildAndVerify(scratch);
    report.success = scratch.success;
    report.countersRecovered = scratch.countersRecovered;

    // Traffic/time model: read the shadow table, write the restored
    // blocks, then verify each restored block against the (on-chip)
    // shadow Merkle tree. The procedure is latency-bound: each
    // restored entry costs a short dependent-fetch chain, which is
    // what fixes Anubis recovery at ~1.3 ms for a 64 kB cache
    // regardless of memory size (paper Table 4).
    report.blocksRead = entries;
    report.blocksWritten = entries;
    const double read_ns = 305.0;
    const double dependent_fetches = 4.0;
    const std::uint64_t table_lines = mcache().lines();
    report.estimatedMs = table_lines * dependent_fetches * read_ns / 1e6;
    report.detail = "anubis: shadow-table restore (cache-size bound)";
    return report;
}

} // namespace amnt::mee
