#include "mee/bmf.hh"

#include <algorithm>

#include "common/log.hh"
#include "fault/fault.hh"

namespace amnt::mee
{

void
BmfStrategy::onAttach()
{
    if (config().bmfRootCacheEntries < 8)
        fatal("BMF needs at least 8 NV root-cache entries");
    // The set starts as {global root}: full coverage, strict-like
    // behaviour everywhere until pruning adapts to the workload.
    roots_.push_back({bmt::NodeRef{1, 0}, {}, 0});
    rebuildIndex();
}

void
BmfStrategy::rebuildIndex()
{
    index_.clear();
    for (std::size_t i = 0; i < roots_.size(); ++i)
        index_[map().geometry().linearId(roots_[i].ref)] = i;
}

bool
BmfStrategy::inSet(bmt::NodeRef ref) const
{
    return index_.count(map().geometry().linearId(ref)) != 0;
}

std::size_t
BmfStrategy::coveringIndex(std::uint64_t counter_idx) const
{
    // Walk the ancestral path from the deepest node up; the first
    // path node in the set covers this counter. The set is an
    // antichain covering the tree, so exactly one exists.
    bmt::NodeRef ref = map().geometry().leafNodeOf(counter_idx);
    while (true) {
        auto it = index_.find(map().geometry().linearId(ref));
        if (it != index_.end())
            return it->second;
        if (ref.level == 1)
            break;
        ref = bmt::Geometry::parentOf(ref);
    }
    panic("BMF root set does not cover counter %llu",
          static_cast<unsigned long long>(counter_idx));
}

unsigned
BmfStrategy::coveringLevel(std::uint64_t counter_idx) const
{
    return roots_[coveringIndex(counter_idx)].ref.level;
}

bool
BmfStrategy::covers(std::uint64_t counter_idx) const
{
    bmt::NodeRef ref = map().geometry().leafNodeOf(counter_idx);
    unsigned found = 0;
    while (true) {
        if (inSet(ref))
            ++found;
        if (ref.level == 1)
            break;
        ref = bmt::Geometry::parentOf(ref);
    }
    return found == 1;
}

void
BmfStrategy::refreshEntry(std::size_t i)
{
    roots_[i].value = tree().node(roots_[i].ref);
}

Cycle
BmfStrategy::persist(const WriteContext &ctx)
{
    const std::size_t cover = coveringIndex(ctx.counterIdx);
    ++roots_[cover].uses;
    const unsigned cover_level = roots_[cover].ref.level;

    // Write through everything strictly below the covering root:
    // counter, HMAC, and path nodes deeper than the cover. The
    // covering root itself is updated in the NV cache (on-chip).
    unsigned misses = 0;
    Cycle hook = 0;
    unsigned below = 0;
    pathOf(ctx.counterIdx, pathScratch());
    const auto &path = pathScratch();
    for (const auto &ref : path) {
        if (ref.level <= cover_level)
            break;
        hook += ensureResident(map().nodeAddrOf(ref), misses);
        ++below;
    }
    Cycle lat = misses > 0 ? config().nvmReadCycles : 0;

    // One batched write-through of the persist set below the cover.
    Addr wt[2 + bmt::Geometry::kMaxPathNodes];
    std::size_t nwt = 0;
    wt[nwt++] = map().counterBase() + ctx.counterIdx * kBlockSize;
    wt[nwt++] = map().hmacAddrOf(ctx.dataAddr);
    for (const auto &ref : path) {
        if (ref.level <= cover_level)
            break;
        wt[nwt++] = map().nodeAddrOf(ref);
    }
    writeThroughMany(wt, nwt);
    refreshEntry(cover);

    lat += persistCost(3 + below);
    return lat + hook;
}

Cycle
BmfStrategy::postCommit(const WriteContext &)
{
    // Adaptation runs between writes, outside the commit group: a
    // crash can land before, inside (at each merge/prune boundary),
    // or after it.
    if (++writesSinceAdapt_ >= config().bmfInterval) {
        writesSinceAdapt_ = 0;
        adapt();
    }
    return 0;
}

void
BmfStrategy::adapt()
{
    const unsigned leaf_level = map().geometry().nodeLevels();

    // Prune: split the hottest non-leaf-level root into its children.
    std::size_t hottest = roots_.size();
    std::uint64_t best = 0;
    for (std::size_t i = 0; i < roots_.size(); ++i) {
        if (roots_[i].ref.level < leaf_level && roots_[i].uses >= best &&
            roots_[i].uses > 0) {
            best = roots_[i].uses;
            hottest = i;
        }
    }

    if (hottest < roots_.size()) {
        // Make room by merging the coldest full sibling group while
        // the cache cannot absorb seven more entries.
        while (roots_.size() + 7 > config().bmfRootCacheEntries) {
            // Group entries by parent; only groups with all eight
            // siblings present are mergeable (prune creates such
            // groups, so one always exists when size > 1).
            std::unordered_map<std::uint64_t,
                               std::pair<unsigned, std::uint64_t>>
                groups; // parent linear id -> (count, total uses)
            const auto &geo = map().geometry();
            for (const auto &e : roots_) {
                if (e.ref.level == 1)
                    continue;
                const std::uint64_t pid =
                    geo.linearId(bmt::Geometry::parentOf(e.ref));
                auto &g = groups[pid];
                g.first += 1;
                g.second += e.uses;
            }
            std::uint64_t victim_pid = 0;
            std::uint64_t victim_uses = ~0ULL;
            bool found = false;
            for (const auto &kv : groups) {
                if (kv.second.first == kTreeArity &&
                    kv.second.second < victim_uses) {
                    victim_pid = kv.first;
                    victim_uses = kv.second.second;
                    found = true;
                }
            }
            if (!found)
                return; // cannot adapt this round
            const bmt::NodeRef parent = geo.nodeOfLinearId(victim_pid);
            if (parent == roots_[hottest].ref)
                return; // would undo the prune we are about to do
            // One merge is one atomic NV-cache transaction: the
            // children's write-throughs and the root-set mutation
            // must not tear (a crash in between would leave counters
            // covered by no persistent root).
            fault::CommitScope merge(nvm().faultDomain());
            // The children leave the NV cache: persist their latest
            // values so nothing below the new covering root is stale.
            Addr child_wt[kTreeArity];
            std::size_t n_child = 0;
            for (const auto &e : roots_) {
                if (e.ref.level == parent.level + 1 &&
                    bmt::Geometry::parentOf(e.ref) == parent)
                    child_wt[n_child++] = map().nodeAddrOf(e.ref);
            }
            writeThroughMany(child_wt, n_child);
            std::erase_if(roots_, [&](const RootEntry &e) {
                return e.ref.level == parent.level + 1 &&
                       bmt::Geometry::parentOf(e.ref) == parent;
            });
            // Everything under the merged parent must be persistent;
            // its children were NV-cached (current), and deeper
            // levels were written through, so installing the parent
            // with its architectural value preserves coverage.
            roots_.push_back({parent, tree().node(parent),
                              victim_uses / 2});
            rebuildIndex();
            merges_.add(stats());
            trace().instant(obs::EventClass::RootAdapt, 1);
            // Indices moved; re-locate the hottest entry.
            hottest = roots_.size();
            best = 0;
            for (std::size_t i = 0; i < roots_.size(); ++i) {
                if (roots_[i].ref.level < leaf_level &&
                    roots_[i].uses >= best && roots_[i].uses > 0) {
                    best = roots_[i].uses;
                    hottest = i;
                }
            }
            if (hottest == roots_.size())
                return;
        }

        // A prune replaces one NV entry with its eight children in a
        // single atomic NV-cache transaction (pure register-file
        // update: the children's values come from the architectural
        // tree, which prune leaves fully covered).
        fault::CommitScope prune(nvm().faultDomain());
        const RootEntry victim = roots_[hottest];
        roots_.erase(roots_.begin() +
                     static_cast<std::ptrdiff_t>(hottest));
        for (unsigned slot = 0; slot < kTreeArity; ++slot) {
            const bmt::NodeRef child =
                map().geometry().childOf(victim.ref, slot);
            roots_.push_back(
                {child, tree().node(child), victim.uses / kTreeArity});
        }
        rebuildIndex();
        prunes_.add(stats());
        trace().instant(obs::EventClass::RootAdapt, 0);
    }

    // Age the usage counters so the set keeps tracking the workload.
    for (auto &e : roots_)
        e.uses /= 2;
}

RecoveryReport
BmfStrategy::recover()
{
    RecoveryReport report;

    // Nothing below a persistent root can be stale; verify that the
    // recomputed tree matches both the NV root register and every NV
    // root-set entry.
    RecoveryReport scratch;
    rebuildAndVerify(scratch);
    bool set_ok = true;
    for (const auto &e : roots_) {
        if (tree().node(e.ref) != e.value) {
            set_ok = false;
            break;
        }
    }
    report.success = scratch.success && set_ok;
    report.countersRecovered = scratch.countersRecovered;
    report.blocksRead = 0;
    report.blocksWritten = 0;
    report.estimatedMs = 0.0;
    report.detail = "bmf: persistent root set, nothing stale";
    return report;
}

std::unique_ptr<ProtocolShadow>
BmfStrategy::cloneShadow() const
{
    auto snap = std::make_unique<Snapshot>();
    snap->roots = roots_;
    snap->index = index_;
    snap->writesSinceAdapt = writesSinceAdapt_;
    return snap;
}

void
BmfStrategy::restoreShadow(const ProtocolShadow &snap)
{
    const auto &s = static_cast<const Snapshot &>(snap);
    roots_ = s.roots;
    index_ = s.index;
    writesSinceAdapt_ = s.writesSinceAdapt;
}

} // namespace amnt::mee
