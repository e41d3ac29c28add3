#include "fault/crash_schedule.hh"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <unordered_map>
#include <utility>

#include "common/env.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "core/amnt.hh"
#include "core/hybrid.hh"
#include "fault/fault.hh"
#include "shard/sharded_engine.hh"

namespace amnt::fault
{

namespace
{

/** One replayable access of the seeded workload. */
struct Op
{
    bool isWrite = false;
    Addr addr = 0;
    std::uint64_t pattern = 0; ///< seed of the 64 B payload
    bool scm = true;           ///< false: hybrid DRAM partition
};

/** Expand a pattern seed into a 64 B payload. */
mem::Block
patternBlock(std::uint64_t seed)
{
    Rng rng(seed);
    mem::Block b;
    for (auto &byte : b)
        byte = static_cast<std::uint8_t>(rng.next());
    return b;
}

/** The fixed workload: identical for the count pass and every replay. */
std::vector<Op>
makeWorkload(const ScheduleConfig &cfg)
{
    if (cfg.pages * kPageSize > cfg.mee.dataBytes)
        panic("crash-schedule footprint exceeds dataBytes");
    if (cfg.blocksPerPage == 0 || cfg.blocksPerPage > kBlocksPerPage)
        panic("crash-schedule blocksPerPage outside [1, %u]",
              static_cast<unsigned>(kBlocksPerPage));
    if (cfg.hybrid && cfg.slices > 0)
        panic("crash-schedule hybrid target cannot be sharded "
              "(slices=%u)", cfg.slices);
    // A sharded target spreads the footprint pages evenly across the
    // WHOLE data range so every slice sees traffic — a contiguous low
    // footprint would leave all but slice 0 idle and the torn cases
    // untested. Unsharded targets keep the contiguous footprint.
    const std::uint64_t spread =
        cfg.slices == 0 ? 1
                        : std::max<std::uint64_t>(
                              1, cfg.mee.dataBytes / kPageSize /
                                     cfg.pages);
    Rng rng(cfg.workloadSeed);
    std::vector<Op> ops(cfg.workloadOps);
    for (unsigned i = 0; i < cfg.workloadOps; ++i) {
        Op &op = ops[i];
        op.isWrite = rng.chance(cfg.writeFraction);
        op.addr = rng.below(cfg.pages) * spread * kPageSize +
                  rng.below(cfg.blocksPerPage) * kBlockSize;
        op.pattern = rng.next();
        // Hybrid machines interleave DRAM traffic: every fourth access
        // targets the volatile partition. Those are excluded from the
        // oracle — DRAM contents are lost at a crash by definition.
        if (cfg.hybrid && i % 4 == 3) {
            op.scm = false;
            op.addr += cfg.mee.dataBytes;
        }
    }
    return ops;
}

/** One persistent slice as the counter differential and tamper probe
 *  see it. */
struct SliceView
{
    mee::MemoryEngine *engine = nullptr;
    mem::NvmDevice *device = nullptr;
    std::uint64_t bytes = 0; ///< slice data bytes (reference geometry)
};

/**
 * One harness over a flat engine, the hybrid controller or a
 * sharded engine. It hides only what differs between targets: issue
 * and flush, commit stamps, and the slice views.
 *
 * Commit stamps: stamp() is taken before each op and cutoff() after
 * recovery; an op committed iff its stamp <= cutoff. On the sharded
 * engine these are the open epoch and the committed epoch. Unsharded,
 * the stamp is the 1-based op number and the cutoff ends at the last
 * op whose commit group closed (see replay).
 */
class Harness
{
    /** Call @p f on whichever engine is the target (defined first:
     *  its deduced return type must be known where it is used). */
    template <class F>
    decltype(auto)
    dispatch(F &&f)
    {
        if (sharded_ != nullptr)
            return f(*sharded_);
        if (hybrid_ != nullptr)
            return f(*hybrid_);
        return f(*engine_);
    }

  public:
    explicit Harness(const ScheduleConfig &cfg)
        : dataBytes_(cfg.mee.dataBytes)
    {
        mee::MeeConfig m = cfg.mee;
        m.trackContents = true; // the oracle needs functional contents
        if (cfg.slices > 0) {
            shard::ShardOptions so;
            so.slices = cfg.slices;
            so.lanes = 1; // injection forces serial drains anyway
            so.epochWrites = cfg.epochWrites;
            so.cores = 1;
            sharded_ = std::make_unique<shard::ShardedEngine>(
                cfg.protocol, m, so);
        } else if (cfg.hybrid) {
            core::HybridConfig hc;
            hc.scmBytes = m.dataBytes;
            hc.dramBytes = m.dataBytes;
            hc.mee = m;
            hybrid_ = std::make_unique<core::HybridEngine>(hc);
        } else {
            nvm_ = std::make_unique<mem::NvmDevice>(
                mem::MemoryMap(m.dataBytes).deviceBytes());
            engine_ = core::makeEngine(cfg.protocol, m, *nvm_);
        }
    }

    void
    attach(FaultDomain *domain)
    {
        if (sharded_ != nullptr)
            sharded_->setFaultDomain(domain);
        else if (hybrid_ != nullptr)
            hybrid_->setFaultDomain(domain);
        else
            nvm_->setFaultDomain(domain);
    }

    Cycle
    write(Addr addr, const std::uint8_t *data)
    {
        return dispatch([&](auto &e) { return e.write(addr, data); });
    }

    Cycle
    read(Addr addr, std::uint8_t *out)
    {
        return dispatch([&](auto &e) { return e.read(addr, out); });
    }

    void crash() { dispatch([](auto &e) { e.crash(); }); }

    mee::RecoveryReport
    recover()
    {
        return dispatch([](auto &e) { return e.recover(); });
    }

    std::uint64_t
    violations()
    {
        return dispatch([](auto &e) { return e.violations(); });
    }

    /** End of workload: the sharded engine drains and commits its
     *  open epoch (more boundaries); other targets have nothing. */
    void
    finish()
    {
        if (sharded_ != nullptr)
            sharded_->flush();
    }

    std::uint64_t
    stamp(std::size_t op) const
    {
        return sharded_ != nullptr ? sharded_->currentEpoch() : op + 1;
    }

    /** The crash landed inside op @p op; @p closed: that op's commit
     *  group closed before the boundary fired. */
    void
    interrupted(std::size_t op, bool closed)
    {
        opCutoff_ = closed ? op + 1 : op;
    }

    std::uint64_t
    cutoff() const
    {
        return sharded_ != nullptr ? sharded_->committedEpoch()
                                   : opCutoff_;
    }

    /** Slices rolled back to the committed epoch by recover(). */
    std::uint64_t
    tornSlices() const
    {
        return sharded_ != nullptr
                   ? sharded_->stats().get("torn_epochs_rolled_back")
                   : 0;
    }

    /** The persistent slices: one identity slice unless sharded (the
     *  hybrid target's slice is its SCM side). */
    std::vector<SliceView>
    slices()
    {
        if (sharded_ != nullptr) {
            std::vector<SliceView> v;
            for (unsigned s = 0; s < sharded_->sliceCount(); ++s)
                v.push_back({&sharded_->shard(s).engine(),
                             &sharded_->shard(s).device(),
                             sharded_->partition().sliceBytes});
            return v;
        }
        if (hybrid_ != nullptr)
            return {{&hybrid_->scm(), &hybrid_->scmDevice(),
                     dataBytes_}};
        return {{engine_.get(), nvm_.get(), dataBytes_}};
    }

    /** (slice index, slice-local address) of a data address. */
    std::pair<unsigned, Addr>
    locate(Addr addr) const
    {
        if (sharded_ == nullptr)
            return {0, addr};
        const shard::Partition &part = sharded_->partition();
        return {part.shardFor(addr), part.localAddr(addr)};
    }

  private:
    std::uint64_t dataBytes_;
    std::uint64_t opCutoff_ = 0;
    std::unique_ptr<mem::NvmDevice> nvm_;
    std::unique_ptr<mee::MemoryEngine> engine_;
    std::unique_ptr<core::HybridEngine> hybrid_;
    std::unique_ptr<shard::ShardedEngine> sharded_;
};

/**
 * Replay @p ops, then the target's final flush, until the armed
 * boundary fires (or the workload ends, which is also how the counting
 * pass runs to completion).
 * @param stamps Receives each op's commit stamp, taken BEFORE the
 *        call because the issuing write itself may close an epoch.
 *        Ops never issued keep ~0 so they can never read as committed.
 * @return true when the armed crash point fired.
 */
bool
replay(Harness &h, const FaultDomain &domain,
       const std::vector<Op> &ops, std::vector<std::uint64_t> &stamps)
{
    stamps.assign(ops.size(), ~0ull);
    std::size_t i = 0;
    std::uint64_t closed_before = 0;
    try {
        for (; i < ops.size(); ++i) {
            const Op &op = ops[i];
            closed_before = domain.commitsClosed();
            stamps[i] = h.stamp(i);
            if (op.isWrite)
                h.write(op.addr, patternBlock(op.pattern).data());
            else
                h.read(op.addr, nullptr);
        }
        h.finish();
    } catch (const CrashInjected &) {
        // The in-flight op committed iff its commit group closed
        // before the boundary fired — the crash then landed in the
        // op's deferred postCommit work (stop-loss persists, path
        // write-throughs, adaptation, movement). The sharded cutoff
        // ignores this: there only the commit record commits.
        h.interrupted(i, domain.commitsClosed() > closed_before);
        return true;
    }
    return false;
}

/** Inject a crash at @p point, recover, and run the full oracle. */
BoundaryOutcome
runOne(const ScheduleConfig &cfg, const std::vector<Op> &ops,
       std::uint64_t point)
{
    BoundaryOutcome out;
    out.point = point;

    Harness h(cfg);
    FaultDomain domain;
    h.attach(&domain);
    domain.arm(point);

    // Injection lifecycle on the (first) engine's trace track: the
    // armed boundary id (a1=1 distinguishes it from the organic Crash
    // instant the engine emits when the boundary actually fires).
    h.slices().front().engine->tracer().instant(obs::EventClass::Crash,
                                                point, 1);

    std::vector<std::uint64_t> stamps;
    out.fired = replay(h, domain, ops, stamps);
    if (!out.fired) {
        out.detail = "armed boundary never fired: replay diverged "
                     "from the count pass";
        return out;
    }

    // Crash and recover. The domain disarmed itself when it fired, so
    // recovery and the oracle's own persists run freely.
    h.crash();
    const mee::RecoveryReport rec = h.recover();
    out.tornSlices = h.tornSlices();
    out.recovered = rec.success;
    if (!out.recovered) {
        out.detail = "recovery failed (" + rec.detail + ")";
        return out;
    }

    // Committed set, in program order: the SCM writes whose stamp is
    // within the recovered cutoff. On a sharded target a torn epoch's
    // writes — even on slices that finished draining — are NOT
    // committed; the oracle below fails if any survived rollback.
    const std::uint64_t cutoff = h.cutoff();
    std::vector<std::size_t> committed;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].isWrite && ops[i].scm && stamps[i] <= cutoff)
            committed.push_back(i);
    }

    // Epoch coalescing means the sharded engine applied only the LAST
    // write per (epoch, block); earlier writes in the same epoch never
    // reached the slice. The reference replays below must mirror
    // that, or their counters would over-count coalesced writes. With
    // one write per stamp (unsharded) this filter keeps every write.
    std::map<std::pair<std::uint64_t, Addr>, std::size_t> last_in_stamp;
    for (std::size_t i : committed)
        last_in_stamp[{stamps[i], ops[i].addr}] = i;

    // Contents oracle: the last committed payload of every durably
    // committed block must decrypt bit-exactly, with zero violations.
    std::unordered_map<Addr, std::uint64_t> last;
    for (std::size_t i : committed)
        last[ops[i].addr] = ops[i].pattern;
    out.contentsOk = true;
    for (std::size_t i : committed) {
        const Op &op = ops[i];
        if (last.at(op.addr) != op.pattern)
            continue; // superseded by a later committed write
        const mem::Block expect = patternBlock(op.pattern);
        mem::Block got{};
        h.read(op.addr, got.data());
        if (got != expect) {
            out.contentsOk = false;
            out.detail = "committed block at address " +
                         std::to_string(op.addr) +
                         " lost or corrupted after recovery";
            break;
        }
    }
    if (out.contentsOk && h.violations() != 0) {
        out.contentsOk = false;
        out.detail = "integrity violations while reading committed "
                     "blocks back";
    }
    if (!out.contentsOk)
        return out;

    // Counter differential, per slice: a Volatile reference engine at
    // slice geometry replaying that slice's committed writes (after
    // coalescing) must agree with the recovered slice on every counter
    // block (both directions, so neither lost nor phantom counters
    // pass).
    const std::vector<SliceView> slices = h.slices();
    out.countersMatch = true;
    for (unsigned s = 0; s < slices.size() && out.countersMatch; ++s) {
        mee::MeeConfig ref_cfg = cfg.mee;
        ref_cfg.trackContents = true;
        ref_cfg.dataBytes = slices[s].bytes;
        mem::NvmDevice ref_nvm(
            mem::MemoryMap(ref_cfg.dataBytes).deviceBytes());
        const auto ref = core::makeEngine(mee::Protocol::Volatile,
                                          ref_cfg, ref_nvm);
        for (std::size_t i : committed) {
            const Op &op = ops[i];
            const auto [slice, local] = h.locate(op.addr);
            if (slice != s)
                continue;
            if (last_in_stamp.at({stamps[i], op.addr}) != i)
                continue; // coalesced into a later same-epoch write
            ref->write(local, patternBlock(op.pattern).data());
        }
        const bmt::TreeState &want = ref->treeState();
        const bmt::TreeState &have = slices[s].engine->treeState();
        want.forEachCounter(
            [&](std::uint64_t idx, const bmt::CounterBlock &cb) {
                if (have.counter(idx) != cb)
                    out.countersMatch = false;
            });
        have.forEachCounter(
            [&](std::uint64_t idx, const bmt::CounterBlock &cb) {
                if (want.counter(idx) != cb)
                    out.countersMatch = false;
            });
    }
    if (!out.countersMatch) {
        out.detail = "recovered counters diverge from the committed-"
                     "write reference replay";
        return out;
    }

    // Liveness: the recovered engine must accept and serve new writes
    // (a sharded functional read drains them synchronously).
    const Addr live_addr = 0;
    const mem::Block live = patternBlock(0x11fe ^ point);
    h.write(live_addr, live.data());
    mem::Block live_back{};
    h.read(live_addr, live_back.data());
    out.liveness = live_back == live && h.violations() == 0;
    if (!out.liveness) {
        out.detail = "post-recovery write/read round trip failed";
        return out;
    }

    // Tamper probe: integrity detection must still be armed on the
    // probed slice after recovery. Target the most recent committed
    // block (or the liveness block when the crash preceded every
    // write); the functional read forces the check.
    const Addr probe =
        committed.empty() ? live_addr : ops[committed.back()].addr;
    const auto [probe_slice, probe_local] = h.locate(probe);
    const std::uint64_t viol_before = h.violations();
    slices[probe_slice].device->tamper(probe_local, 13, 0x40);
    mem::Block sink{};
    h.read(probe, sink.data());
    out.tamperDetected = h.violations() > viol_before;
    if (!out.tamperDetected)
        out.detail = "post-recovery tamper of a committed block went "
                     "undetected";
    return out;
}

} // namespace

std::string
ScheduleReport::describeFailures() const
{
    std::string s;
    for (const auto &f : failures) {
        s += "boundary " + std::to_string(f.point) + ": " + f.detail;
        s += " [fired=" + std::to_string(f.fired) +
             " recovered=" + std::to_string(f.recovered) +
             " contents=" + std::to_string(f.contentsOk) +
             " counters=" + std::to_string(f.countersMatch) +
             " tamper=" + std::to_string(f.tamperDetected) +
             " live=" + std::to_string(f.liveness) + "]";
        s += " (reproduce: AMNT_FAULT_POINT=" +
             std::to_string(f.point) + ")\n";
    }
    return s;
}

ScheduleConfig
applyEnv(ScheduleConfig cfg)
{
    cfg.stride = envU64("AMNT_FAULT_STRIDE", cfg.stride);
    if (cfg.stride == 0)
        cfg.stride = 1;
    cfg.sampleSeed = envU64("AMNT_FAULT_SEED", cfg.sampleSeed);
    if (std::getenv("AMNT_FAULT_POINT") != nullptr)
        cfg.onlyPoint = envU64("AMNT_FAULT_POINT", 0);
    return cfg;
}

ScheduleReport
runCrashSchedule(const ScheduleConfig &cfg)
{
    const std::vector<Op> ops = makeWorkload(cfg);
    ScheduleReport report;

    // Count pass: enumerate every boundary once — engine persist ops
    // and, when sharded, each slice's drain fence and commit record.
    {
        Harness h(cfg);
        FaultDomain domain;
        h.attach(&domain);
        domain.startCounting();
        std::vector<std::uint64_t> stamps;
        replay(h, domain, ops, stamps);
        report.totalBoundaries = domain.events();
    }

    const std::uint64_t stride = cfg.stride == 0 ? 1 : cfg.stride;
    std::uint64_t first = 0;
    if (cfg.sampleSeed != 0 && stride > 1)
        first = Rng(cfg.sampleSeed).below(stride);

    for (std::uint64_t k = cfg.onlyPoint ? *cfg.onlyPoint : first;
         k < report.totalBoundaries; k += stride) {
        BoundaryOutcome out = runOne(cfg, ops, k);
        ++report.tested;
        if (!out.ok())
            report.failures.push_back(std::move(out));
        if (cfg.onlyPoint)
            break;
    }
    if (cfg.onlyPoint && report.tested == 0) {
        BoundaryOutcome out;
        out.point = *cfg.onlyPoint;
        out.detail = "AMNT_FAULT_POINT beyond the boundary count (" +
                     std::to_string(report.totalBoundaries) + ")";
        report.failures.push_back(std::move(out));
    }
    return report;
}

BoundaryOutcome
runBoundary(const ScheduleConfig &cfg, std::uint64_t point)
{
    const std::vector<Op> ops = makeWorkload(cfg);
    return runOne(cfg, ops, point);
}

} // namespace amnt::fault
