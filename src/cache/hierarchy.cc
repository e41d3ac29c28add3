#include "cache/hierarchy.hh"

#include "common/log.hh"
#include "obs/registry.hh"

namespace amnt::cache
{

CacheHierarchy::CacheHierarchy(std::vector<Cache *> path,
                               MemReadFn mem_read, MemWriteFn mem_write)
    : path_(std::move(path)), memRead_(std::move(mem_read)),
      memWrite_(std::move(mem_write))
{
    if (path_.empty())
        panic("CacheHierarchy requires at least one level");
}

Cycle
CacheHierarchy::installAt(std::size_t level, Addr addr, bool dirty)
{
    if (level >= path_.size()) {
        // Dirty block leaves the hierarchy: a data write arrives at
        // the secure memory controller and its metadata-persistence
        // cost lands on the evicting access. Clean blocks vanish.
        if (dirty) {
            ++memWrites_;
            return memWrite_(addr);
        }
        return 0;
    }
    // A resident line absorbs a dirty victim (install() updates it as
    // a dirty hit); only a real fill can displace another block.
    const AccessResult res = path_[level]->install(addr, dirty);
    if (res.evictedValid)
        return installAt(level + 1, res.evictedAddr, res.evictedDirty);
    return 0;
}

Cycle
CacheHierarchy::access(Addr addr, AccessType type)
{
    const bool write = type == AccessType::Write;
    Cycle latency = 0;

    for (std::size_t i = 0; i < path_.size(); ++i) {
        latency += path_[i]->hitLatency();
        if (path_[i]->access(addr, write && i == 0)) {
            // Hit at level i: fill the levels above it.
            for (std::size_t j = i; j-- > 0;) {
                const AccessResult res =
                    path_[j]->insert(addr, write && j == 0);
                if (res.evictedValid)
                    latency += installAt(j + 1, res.evictedAddr,
                                          res.evictedDirty);
            }
            return latency;
        }
    }

    // Miss everywhere: fetch from the secure memory controller.
    ++memReads_;
    latency += memRead_(addr);
    for (std::size_t j = path_.size(); j-- > 0;) {
        const AccessResult res = path_[j]->insert(addr, write && j == 0);
        if (res.evictedValid)
            latency += installAt(j + 1, res.evictedAddr,
                                 res.evictedDirty);
    }
    return latency;
}

void
CacheHierarchy::invalidateAll()
{
    for (Cache *c : path_)
        c->invalidateAll();
}

void
CacheHierarchy::registerStats(obs::StatRegistry &reg,
                              const std::string &prefix) const
{
    reg.addScalar(prefix + ".mem_reads", [this] { return memReads_; });
    reg.addScalar(prefix + ".mem_writes",
                  [this] { return memWrites_; });
}

} // namespace amnt::cache
