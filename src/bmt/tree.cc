#include "bmt/tree.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/bitops.hh"
#include "common/log.hh"

namespace amnt::bmt
{

namespace
{

const mem::Block kZeroBlock{};
const CounterBlock kZeroCounter{};

/**
 * Batched hash of @p n blocks with the zero-block -> 0 convention:
 * out[i] = mac64(blockOf(i), tweakOf(i)), zero blocks skipping the
 * MAC entirely, all real MACs in one mac64xN burst.
 */
template <typename BlockFn, typename TweakFn>
void
batchHash(const crypto::HashEngine &hash, std::size_t n,
          BlockFn &&blockOf, TweakFn &&tweakOf,
          std::vector<std::uint64_t> &out)
{
    out.assign(n, 0);
    std::vector<crypto::MacRequest> reqs;
    std::vector<std::size_t> pos;
    reqs.reserve(n);
    pos.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const mem::Block &b = blockOf(i);
        if (mem::isZeroBlock(b))
            continue;
        reqs.push_back({b.data(), b.size(), tweakOf(i)});
        pos.push_back(i);
    }
    std::vector<std::uint64_t> macs(reqs.size());
    hash.mac64xN(reqs.data(), reqs.size(), macs.data());
    for (std::size_t j = 0; j < reqs.size(); ++j)
        out[pos[j]] = macs[j];
}

} // namespace

TreeState::TreeState(const mem::MemoryMap &map,
                     const crypto::HashEngine &hash)
    : map_(&map), hash_(&hash), geo_(&map.geometry()),
      counterBase_(map.counterBase()), treeBase_(map.treeBase())
{
}

const CounterBlock &
TreeState::counter(std::uint64_t idx) const
{
    auto it = counters_.find(idx);
    return it == counters_.end() ? kZeroCounter : it->second;
}

const mem::Block &
TreeState::node(NodeRef ref) const
{
    auto it = nodes_.find(geo_->linearId(ref));
    return it == nodes_.end() ? kZeroBlock : it->second;
}

std::uint64_t
TreeState::hashCounterBytes(std::uint64_t idx,
                            const mem::Block &bytes) const
{
    if (mem::isZeroBlock(bytes))
        return 0;
    const Addr tweak = counterBase_ + idx * kBlockSize;
    return hash_->mac64(bytes.data(), bytes.size(), tweak);
}

std::uint64_t
TreeState::hashNodeBytes(NodeRef ref, const mem::Block &bytes) const
{
    if (mem::isZeroBlock(bytes))
        return 0;
    return hash_->mac64(bytes.data(), bytes.size(), nodeAddr(ref));
}

const mem::Block &
TreeState::setEntry(NodeRef ref, unsigned slot, std::uint64_t value)
{
    // try_emplace value-initializes fresh blocks to all-zero.
    mem::Block &node = nodes_.try_emplace(geo_->linearId(ref)).first->second;
    store64le(node.data() + slot * kHashBytes, value);
    return node;
}

void
TreeState::updatePath(std::uint64_t idx, const mem::Block &bytes)
{
    // One insert-or-find per level, deepest node first: each node is
    // hashed right after its entry is written, before the parent's
    // insert may move nodes_' values.
    NodeRef ref = geo_->leafNodeOf(idx);
    unsigned slot = static_cast<unsigned>(idx % kTreeArity);
    std::uint64_t entry = hashCounterBytes(idx, bytes);
    while (true) {
        const mem::Block &node = setEntry(ref, slot, entry);
        if (ref.level == 1)
            break;
        entry = hashNodeBytes(ref, node);
        slot = Geometry::slotOf(ref);
        ref = Geometry::parentOf(ref);
    }
}

void
TreeState::setCounter(std::uint64_t idx, const CounterBlock &value)
{
    counters_[idx] = value;
    updatePath(idx, value.serialize());
}

std::uint64_t
TreeState::rootHash() const
{
    return hashNodeBytes({1, 0}, node({1, 0}));
}

bool
TreeState::verifyCounterBytes(std::uint64_t idx,
                              const mem::Block &bytes) const
{
    const NodeRef parent = map_->geometry().leafNodeOf(idx);
    const std::uint64_t stored = load64le(
        node(parent).data() + (idx % kTreeArity) * kHashBytes);
    return hashCounterBytes(idx, bytes) == stored;
}

bool
TreeState::verifyNodeBytes(NodeRef ref, const mem::Block &bytes) const
{
    if (ref.level == 1)
        return hashNodeBytes(ref, bytes) == rootHash();
    const NodeRef parent = Geometry::parentOf(ref);
    const std::uint64_t stored = load64le(
        node(parent).data() + Geometry::slotOf(ref) * kHashBytes);
    return hashNodeBytes(ref, bytes) == stored;
}

void
TreeState::forEachCounter(
    const std::function<void(std::uint64_t, const CounterBlock &)>
        &visitor) const
{
    for (const auto &kv : counters_)
        visitor(kv.first, kv.second);
}

void
TreeState::forEachNode(
    const std::function<void(NodeRef, const mem::Block &)> &visitor) const
{
    for (const auto &kv : nodes_)
        visitor(geo_->nodeOfLinearId(kv.first), kv.second);
}

std::uint64_t
TreeState::rebuildFromNvm(const mem::NvmDevice &nvm)
{
    counters_.clear();
    nodes_.clear();
    const Addr lo = map_->counterBase();
    const Addr hi = map_->hmacBase();
    std::vector<std::uint64_t> idxs;
    nvm.forEachBlockIn(lo, hi,
                       [this, lo, &idxs](Addr addr, const mem::Block &b) {
        const std::uint64_t idx = (addr - lo) / kBlockSize;
        counters_[idx] = CounterBlock::deserialize(b);
        idxs.push_back(idx);
    });
    std::sort(idxs.begin(), idxs.end());
    // Re-serialize rather than hashing the raw persisted bytes: the
    // hash chain must be computed over the canonical encoding, exactly
    // as the pre-crash updatePath did (tampered non-canonical bytes
    // must not leak into the rebuilt tree).
    std::vector<mem::Block> canon;
    canon.reserve(idxs.size());
    for (std::uint64_t idx : idxs)
        canon.push_back(counters_.find(idx)->second.serialize());

    // Level-by-level rebuild: every entry of a level is final before
    // the level itself is hashed, so each touched node is MACed
    // exactly once (the per-counter updatePath walk re-hashes shared
    // ancestors once per descendant), and each level's hashes go
    // through one batched mac64xN burst.
    const unsigned deepest = geo_->nodeLevels();

    // Counter leaves -> deepest node level.
    {
        std::vector<std::uint64_t> macs;
        batchHash(
            *hash_, idxs.size(),
            [&canon](std::size_t i) -> const mem::Block & {
                return canon[i];
            },
            [this, &idxs](std::size_t i) {
                return counterBase_ + idxs[i] * kBlockSize;
            },
            macs);
        for (std::size_t i = 0; i < idxs.size(); ++i)
            setEntry(geo_->leafNodeOf(idxs[i]),
                     static_cast<unsigned>(idxs[i] % kTreeArity),
                     macs[i]);
    }

    // Touched node indices at the current level, sorted and unique.
    std::vector<std::uint64_t> level_idx;
    level_idx.reserve(idxs.size());
    for (std::uint64_t idx : idxs)
        level_idx.push_back(geo_->leafNodeOf(idx).index);
    level_idx.erase(std::unique(level_idx.begin(), level_idx.end()),
                    level_idx.end());

    for (unsigned level = deepest; level > 1; --level) {
        std::vector<std::uint64_t> macs;
        batchHash(
            *hash_, level_idx.size(),
            [this, level, &level_idx](std::size_t i)
                -> const mem::Block & {
                return node({level, level_idx[i]});
            },
            [this, level, &level_idx](std::size_t i) {
                return nodeAddr({level, level_idx[i]});
            },
            macs);
        for (std::size_t i = 0; i < level_idx.size(); ++i) {
            const NodeRef ref{level, level_idx[i]};
            setEntry(Geometry::parentOf(ref), Geometry::slotOf(ref),
                     macs[i]);
        }
        for (auto &idx : level_idx)
            idx /= kTreeArity;
        level_idx.erase(
            std::unique(level_idx.begin(), level_idx.end()),
            level_idx.end());
    }
    return rootHash();
}

} // namespace amnt::bmt
