/**
 * perfbench_driver — the simulator side of the repository benchmark.
 *
 * Drives the simulator only through public calls and prints one JSON
 * object per line; perfbench/run.py launches it once per op, turns
 * the lines into metrics and checks them. Every mode ends with the
 * process's peak RSS. Modes:
 *
 *   record --seed S --out PATH
 *       Record the GUPS reference stream of the gups-sharded
 *       workload (untimed input generation).
 *   run --workload W --seed S [--trace-file PATH]
 *       Untraced: one whole simulated run through sim::System (one
 *       sweep::run for mp-sweep), its phase times and output digest.
 *   setup --workload mp-sweep --seed S
 *       Untraced: the construction time of the first pair's jobs.
 *   trace --workload W --seed S [--trace-file PATH] [--traced-first 1]
 *       Traced: an untraced reference op and the same run composed
 *       from the public pieces System assembles (Workload::next ->
 *       PageTable::translate -> CacheHierarchy::access ->
 *       MemoryEngine / ShardedEngine) with every layer call timed,
 *       plus crypto kernel timings.
 */

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "core/amnt.hh"
#include "core/protocol_registry.hh"
#include "crypto/engines.hh"
#include "mee/engine.hh"
#include "mem/memory_map.hh"
#include "mem/nvm_device.hh"
#include "obs/registry.hh"
#include "os/buddy_allocator.hh"
#include "os/page_table.hh"
#include "shard/sharded_engine.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "sim/workload.hh"

using namespace amnt;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * CPU seconds consumed so far by the process (all threads) or by the
 * calling thread. The end-to-end metrics are CPU times: on a shared
 * host, wall time also counts the time other tenants, the scheduler
 * and the hypervisor (steal time, which the kernel leaves out of task
 * CPU time) hold the CPU, and that swung single-op wall times by up to
 * 2x with the code unchanged.
 */
double
cpuSeconds(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/**
 * Span timestamp. On x86 the unserialized time-stamp counter: it
 * costs a fraction of a clock_gettime and does not drain the
 * pipeline, so tracing perturbs the traced run less. Ticks become
 * nanoseconds through a ratio calibrated against steady_clock over
 * the whole ROI (ComposedSystem::nsPerTick).
 */
std::uint64_t
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
#endif
}

// ------------------------------------------------------------ workloads

/** Measured and warm-up instructions per core, single-system runs. */
constexpr std::uint64_t kInstructions = 2'000'000;
constexpr std::uint64_t kWarmup = 1'000'000;

/** mp-sweep runs the Figure 5 matrix at reduced length. */
constexpr std::uint64_t kSweepInstructions = 200'000;
constexpr std::uint64_t kSweepWarmup = 100'000;
constexpr unsigned kSweepWorkers = 2;

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** The preset with its stream seed derived from the run seed. */
sim::WorkloadConfig
seeded(sim::WorkloadConfig w, std::uint64_t seed)
{
    w.seed ^= splitmix(seed);
    return w;
}

/** Footprint scaling of the figure harnesses (AMNT_BENCH_SCALE=4). */
sim::WorkloadConfig
scaled(sim::WorkloadConfig w)
{
    w.footprintPages = std::max<std::uint64_t>(256, w.footprintPages / 4);
    return w;
}

/** One simulated run: a sweep job, optionally ending in a recovery. */
struct Spec : sweep::Job
{
    bool recover = false;
};

sim::WorkloadConfig
gupsWorkload(std::uint64_t seed)
{
    return seeded(scaled(sim::syntheticPreset("gups")), seed);
}

Spec
singleSpec(const std::string &workload, std::uint64_t seed,
           const std::string &trace_file)
{
    Spec s;
    s.config = sim::SystemConfig::singleProgram(mee::Protocol::Amnt);
    s.instructions = kInstructions;
    s.warmup = kWarmup;
    if (workload == "canneal-amnt") {
        s.processes = {seeded(scaled(sim::parsecPreset("canneal")), seed)};
    } else if (workload == "kvstore-amnt") {
        s.processes = {
            seeded(scaled(sim::syntheticPreset("kvstore")), seed)};
        s.recover = true;
    } else if (workload == "gups-sharded") {
        if (trace_file.empty())
            fatal("gups-sharded needs --trace-file");
        sim::WorkloadConfig w = gupsWorkload(seed);
        w.traceFile = trace_file;
        s.processes = {w};
        s.config.shards = 2;           // drain lanes
        s.config.shardOptions.slices = 4;
    } else {
        fatal("unknown single-system workload '%s'", workload.c_str());
    }
    return s;
}

/** Figure 5 matrix: 3 pairs x (9 registry protocols + AMNT++). */
std::vector<sweep::Job>
sweepJobs(std::uint64_t seed)
{
    std::vector<sweep::Job> jobs;
    for (const auto &[a, b] : sim::parsecMultiprogramPairs()) {
        const std::vector<sim::WorkloadConfig> procs = {
            seeded(sim::parsecPreset(a), seed),
            seeded(sim::parsecPreset(b), seed)};
        auto make = [&](mee::Protocol p, bool amntpp) {
            sim::SystemConfig cfg = sim::SystemConfig::multiProgram(p);
            cfg.amntpp = amntpp;
            jobs.push_back(sweep::Job{cfg, procs, kSweepInstructions,
                                      kSweepWarmup});
        };
        for (mee::Protocol p : core::allProtocols())
            make(p, false);
        make(mee::Protocol::Amnt, true);
    }
    return jobs;
}

// ------------------------------------------------------------- digests

/** FNV-1a over the canonical text of a run's simulated outputs. */
class Digest
{
  public:
    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 0x100000001b3ULL;
        }
        h_ ^= 0xff; // field separator
        h_ *= 0x100000001b3ULL;
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string
resultText(const sim::RunResult &r)
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "cycles=%llu app=%llu os=%llu data=%llu reads=%llu writes=%llu "
        "mhit=%.17g shit=%.17g moves=%llu faults=%llu",
        static_cast<unsigned long long>(r.cycles),
        static_cast<unsigned long long>(r.appInstructions),
        static_cast<unsigned long long>(r.osInstructions),
        static_cast<unsigned long long>(r.dataAccesses),
        static_cast<unsigned long long>(r.memReads),
        static_cast<unsigned long long>(r.memWrites), r.mcacheHitRate,
        r.subtreeHitRate,
        static_cast<unsigned long long>(r.subtreeMovements),
        static_cast<unsigned long long>(r.pageFaults));
    return buf;
}

std::string
recoveryText(const mee::RecoveryReport &rep)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "ok=%d read=%llu written=%llu counters=%llu nodes=%llu",
                  rep.success ? 1 : 0,
                  static_cast<unsigned long long>(rep.blocksRead),
                  static_cast<unsigned long long>(rep.blocksWritten),
                  static_cast<unsigned long long>(rep.countersRecovered),
                  static_cast<unsigned long long>(rep.nodesRecomputed));
    return buf;
}

/** Sum of every `*.violations` scalar in a registry dump. */
std::uint64_t
dumpViolations(const std::string &dump)
{
    static const char kKey[] = "violations\": ";
    std::uint64_t total = 0;
    for (std::size_t pos = dump.find(kKey); pos != std::string::npos;
         pos = dump.find(kKey, pos + 1))
        total += std::strtoull(dump.c_str() + pos + sizeof kKey - 1,
                               nullptr, 10);
    return total;
}

/** One JSON object printed as one line of standard output. */
class JsonLine
{
  public:
    JsonLine &
    num(const char *key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.9g", v);
        return raw(key, buf);
    }

    JsonLine &
    count(const char *key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    JsonLine &
    flag(const char *key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }

    /** @p v must need no escaping (digests, labels, report text). */
    JsonLine &
    str(const char *key, const std::string &v)
    {
        return raw(key, "\"" + v + "\"");
    }

    /** @p json is already JSON (e.g. a registry dump). */
    JsonLine &
    raw(const char *key, const std::string &json)
    {
        body_ += body_.empty() ? "{\"" : ", \"";
        body_ += key;
        body_ += "\": ";
        body_ += json;
        return *this;
    }

    void
    print()
    {
        std::replace(body_.begin(), body_.end(), '\n', ' ');
        std::printf("%s}\n", body_.c_str());
        std::fflush(stdout);
    }

  private:
    std::string body_;
};

// -------------------------------------------------------- untraced ops

/** Outputs and phase times of one whole simulated run. */
struct Op
{
    sim::RunResult result;
    std::string dump;     ///< registry after the ROI
    std::string recovery; ///< recoveryText, when the workload recovers
    bool recovered = true;
    std::uint64_t violations = 0;
    double setupS = 0, warmS = 0, roiS = 0, recoverS = 0;
    /**
     * CPU seconds of setup, of the ROI and of the whole op. They count
     * the whole process, so ops run side by side (traceSweep) use only
     * the wall times.
     */
    double setupCpuS = 0, roiCpuS = 0, cpuS = 0;

    double wallS() const { return setupS + warmS + roiS + recoverS; }

    std::string
    digest() const
    {
        Digest d;
        d.add(resultText(result));
        d.add(dump);
        d.add(recovery);
        return d.hex();
    }
};

Op
runSystemOp(const Spec &spec)
{
    Op op;
    const double c0 = cpuSeconds();
    const auto t0 = Clock::now();
    sim::System sys(spec.config);
    for (const auto &w : spec.processes)
        sys.addProcess(w);
    const auto t1 = Clock::now();
    op.setupCpuS = cpuSeconds() - c0;
    // Two calls so the warm-up stays outside the ROI timer: the same
    // simulation as run(instr, warmup) except under AMNT++, whose
    // reclamation-daemon clock restarts with each call. An AMNT++ run
    // is left whole and its warm-up counted in the ROI time.
    if (!spec.config.amntpp)
        sys.run(0, spec.warmup);
    const auto t2 = Clock::now();
    const double c2 = cpuSeconds();
    op.result = sys.run(spec.instructions,
                        spec.config.amntpp ? spec.warmup : 0);
    const auto t3 = Clock::now();
    const double c3 = cpuSeconds();
    op.roiCpuS = c3 - c2;
    op.cpuS = c3 - c0;
    op.setupS = secondsBetween(t0, t1);
    op.warmS = secondsBetween(t1, t2);
    op.roiS = secondsBetween(t2, t3);
    op.dump = sys.statsJson();
    op.violations = sys.sharded() != nullptr
                        ? sys.sharded()->violations()
                        : sys.engine().violations();
    if (spec.recover) {
        const auto t4 = Clock::now();
        const double c4 = cpuSeconds();
        sys.engine().crash();
        const mee::RecoveryReport rep = sys.engine().recover();
        op.recoverS = secondsBetween(t4, Clock::now());
        op.cpuS += cpuSeconds() - c4;
        op.recovered = rep.success;
        op.recovery = recoveryText(rep);
        op.violations = sys.engine().violations();
    }
    return op;
}

void
printOp(const Op &op)
{
    JsonLine()
        .str("digest", op.digest())
        .num("setup_s", op.setupS)
        .num("warm_s", op.warmS)
        .num("roi_s", op.roiS)
        .num("recover_s", op.recoverS)
        .num("wall_s", op.wallS())
        .num("setup_cpu_s", op.setupCpuS)
        .num("roi_cpu_s", op.roiCpuS)
        .num("cpu_s", op.cpuS)
        .count("instructions", op.result.appInstructions)
        .count("violations", op.violations)
        .flag("recovered", op.recovered)
        .print();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // kB on Linux
}

std::string
sweepDigest(const std::vector<sweep::Outcome> &outs)
{
    Digest d;
    for (const auto &o : outs) {
        d.add(resultText(o.result));
        d.add(o.statsJson);
    }
    return d.hex();
}

/**
 * CPU seconds of System construction + addProcess on the calling
 * worker thread, the setup_s of one sweep job.
 */
double
timeJobSetup(const sweep::Job &job)
{
    const double c0 = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    sim::System sys(job.config);
    for (const auto &w : job.processes)
        sys.addProcess(w);
    return cpuSeconds(CLOCK_THREAD_CPUTIME_ID) - c0;
}

/**
 * setup_s of mp-sweep: the construction time of the first pair's jobs
 * (the pairs differ only in their short hot-page initialisation), timed
 * on the sweep's worker count so the pass sees the contention the
 * sweep does. One pair keeps the pass short enough to leave several
 * sweeps in a run.
 */
void
sweepSetup(std::uint64_t seed)
{
    std::vector<sweep::Job> jobs = sweepJobs(seed);
    jobs.resize(core::allProtocols().size() + 1);
    std::vector<double> setups(jobs.size());
    sweep::parallelFor(
        jobs.size(),
        [&](std::size_t i) { setups[i] = timeJobSetup(jobs[i]); },
        kSweepWorkers);
    for (double v : setups)
        JsonLine().num("job_setup_s", v).print();
}

void
runSweep(std::uint64_t seed)
{
    const std::vector<sweep::Job> jobs = sweepJobs(seed);
    const auto t0 = Clock::now();
    const double c0 = cpuSeconds();
    const std::vector<sweep::Outcome> outs = sweep::run(jobs, kSweepWorkers);
    const double cpu = cpuSeconds() - c0;
    const double wall = secondsBetween(t0, Clock::now());
    std::uint64_t instr = 0, violations = 0;
    for (const auto &o : outs) {
        instr += o.result.appInstructions;
        violations += dumpViolations(o.statsJson);
    }
    JsonLine()
        .str("digest", sweepDigest(outs))
        .count("jobs", outs.size())
        .num("wall_s", wall)
        .num("cpu_s", cpu)
        .count("instructions", instr)
        .count("violations", violations)
        .flag("recovered", true)
        .print();
}

// ------------------------------------------------------- traced runs

/** Host-time spans of one traced run, summed over the ROI. */
struct Spans
{
    std::uint64_t nextTicks = 0, nextCalls = 0;
    std::uint64_t translateTicks = 0, translateCalls = 0;
    std::uint64_t accessTicks = 0, accessCalls = 0; ///< incl. memory calls
    std::uint64_t memInAccessTicks = 0;  ///< memory calls made by access()
    std::uint64_t meeReadTicks = 0, meeWriteTicks = 0, flushWriteTicks = 0;
    std::vector<std::uint32_t> meeReadSamples, meeWriteSamples;
    std::uint64_t shardReadTicks = 0, shardWriteTicks = 0, shardWrites = 0;
    std::uint64_t shardSyncTicks = 0;
};

double
percentile(std::vector<std::uint32_t> v, double p)
{
    if (v.empty())
        return 0.0;
    const std::size_t k = std::min(
        v.size() - 1,
        static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size())));
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return v[k];
}

/**
 * The machine System assembles, built from the same public pieces
 * and driven by the same step loop, with every layer call timed. Its
 * simulated results must equal System's exactly (checked by the
 * caller). AMNT++ (allocator daemon) is not composed.
 */
class ComposedSystem
{
  public:
    explicit ComposedSystem(const sim::SystemConfig &config)
        : config_(config)
    {
        if (config.amntpp)
            fatal("the traced composition does not model AMNT++");
        mee::MeeConfig mee_cfg = config.mee;
        if (config.shards > 0) {
            shard::ShardOptions so = config.shardOptions;
            so.lanes = config.shards;
            so.cores = config.cores;
            sharded_ = std::make_unique<shard::ShardedEngine>(
                config.protocol, mee_cfg, so);
        } else {
            const mem::MemoryMap probe(mee_cfg.dataBytes);
            nvm_ = std::make_unique<mem::NvmDevice>(probe.deviceBytes());
            engine_ = core::makeEngine(config.protocol, mee_cfg, *nvm_);
        }
        allocator_ = std::make_unique<os::BuddyAllocator>(
            mee_cfg.dataBytes / kPageSize);
        if (config.ageAllocator) {
            const auto t0 = Clock::now();
            Rng rng(config.allocatorSeed);
            allocator_->ageSystem(rng, config.agedFreeFraction,
                                  config.agedRunPages);
            ageS_ = secondsBetween(t0, Clock::now());
        }
        if (config.sharedLlc)
            llc_ = std::make_unique<cache::Cache>(*config.sharedLlc);
        cores_.resize(config.cores);
        if (sharded_ != nullptr) {
            sharded_->registerStats(registry_);
        } else {
            engine_->registerStats(registry_, "mee");
            nvm_->registerStats(registry_, "nvm");
        }
        if (llc_)
            registry_.addGroup("cache." + llc_->name(), &llc_->stats());
    }

    void
    addProcess(const sim::WorkloadConfig &workload)
    {
        const unsigned i = added_++;
        if (i >= cores_.size())
            fatal("more processes than cores");
        Core &c = cores_[i];
        c.workload = std::make_unique<sim::Workload>(workload);
        c.pageTable = std::make_unique<os::PageTable>(*allocator_);
        c.rng.reseed(workload.seed ^ (0xc0feULL + i));
        std::vector<cache::Cache *> path;
        for (const auto &level : config_.privateLevels) {
            cache::CacheConfig cc = level;
            cc.name = level.name + "." + std::to_string(i);
            c.caches.push_back(std::make_unique<cache::Cache>(cc));
            path.push_back(c.caches.back().get());
            registry_.addGroup("cache." + cc.name,
                               &c.caches.back()->stats());
        }
        if (llc_)
            path.push_back(llc_.get());
        c.hierarchy = std::make_unique<cache::CacheHierarchy>(
            path, [this, i](Addr a) { return memRead(a, i); },
            [this, i](Addr a) { return memWrite(a, i, false); });
        const std::string core_path = "core" + std::to_string(i);
        c.hierarchy->registerStats(registry_, core_path);
        registry_.addScalar(core_path + ".page_faults",
                            [pt = c.pageTable.get()] { return pt->faults(); });
        const auto hot_pages = static_cast<std::uint64_t>(
            static_cast<double>(workload.footprintPages) *
            workload.hotPagesFraction);
        for (std::uint64_t p = 0; p < hot_pages; ++p)
            c.pageTable->translate(pageAddr(p));
        lastOs_ = allocator_->instructions();
    }

    /** Warm-up, then the timed ROI; mirrors System::run. */
    sim::RunResult
    run(std::uint64_t instructions, std::uint64_t warmup)
    {
        const auto w0 = Clock::now();
        advance(warmup);
        sync();
        const Snapshot before = snapshot();
        preRoiDump_ = registry_.dumpJson();
        spans_ = Spans{};
        const auto r0 = Clock::now();
        const std::uint64_t k0 = ticks();
        advance(instructions);
        sync();
        const std::uint64_t k1 = ticks();
        const auto r1 = Clock::now();
        warmS_ = secondsBetween(w0, r0);
        roiS_ = secondsBetween(r0, r1);
        nsPerTick_ = roiS_ * 1e9 /
                     static_cast<double>(std::max<std::uint64_t>(1, k1 - k0));
        const Snapshot after = snapshot();

        sim::RunResult res;
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            res.cycles = std::max(res.cycles, after.coreCycles[i] -
                                                  before.coreCycles[i]);
            res.appInstructions +=
                after.coreInstructions[i] - before.coreInstructions[i];
            res.memReads += after.memReads[i] - before.memReads[i];
            res.memWrites += after.memWrites[i] - before.memWrites[i];
            res.pageFaults += after.faults[i] - before.faults[i];
        }
        res.dataAccesses = res.memReads + res.memWrites;
        res.osInstructions = after.osInstructions - before.osInstructions;
        res.mcacheHitRate =
            rate(after.mcacheHits - before.mcacheHits,
                 after.mcacheMisses - before.mcacheMisses);
        res.subtreeHitRate =
            rate(after.subtreeHits - before.subtreeHits,
                 after.subtreeMisses - before.subtreeMisses);
        res.subtreeMovements = after.movements - before.movements;
        return res;
    }

    mee::RecoveryReport
    crashAndRecover()
    {
        engine_->crash();
        return engine_->recover();
    }

    std::uint64_t
    violations() const
    {
        return sharded_ != nullptr ? sharded_->violations()
                                   : engine_->violations();
    }

    std::string dump() const { return registry_.dumpJson(); }
    const std::string &preRoiDump() const { return preRoiDump_; }
    const Spans &spans() const { return spans_; }
    double ageS() const { return ageS_; }
    double nsPerTick() const { return nsPerTick_; }
    double warmS() const { return warmS_; }
    double roiS() const { return roiS_; }

  private:
    struct Core
    {
        std::unique_ptr<sim::Workload> workload;
        std::unique_ptr<os::PageTable> pageTable;
        std::vector<std::unique_ptr<cache::Cache>> caches;
        std::unique_ptr<cache::CacheHierarchy> hierarchy;
        Rng rng{1};
        Cycle cycles = 0;
        std::uint64_t instructions = 0;
    };

    struct Snapshot
    {
        std::vector<Cycle> coreCycles;
        std::vector<std::uint64_t> coreInstructions, memReads, memWrites,
            faults;
        std::uint64_t osInstructions = 0;
        std::uint64_t mcacheHits = 0, mcacheMisses = 0;
        std::uint64_t subtreeHits = 0, subtreeMisses = 0, movements = 0;
    };

    static double
    rate(std::uint64_t hits, std::uint64_t misses)
    {
        return hits + misses == 0
                   ? 0.0
                   : static_cast<double>(hits) /
                         static_cast<double>(hits + misses);
    }

    static std::uint32_t
    sample(std::uint64_t d)
    {
        return static_cast<std::uint32_t>(
            std::min<std::uint64_t>(d, UINT32_MAX));
    }

    /** A read from CacheHierarchy::access (an LLC miss). */
    Cycle
    memRead(Addr a, unsigned core)
    {
        const std::uint64_t t0 = ticks();
        Cycle lat = 0;
        if (sharded_ != nullptr) {
            lat = sharded_->read(a, nullptr, core);
            spans_.shardReadTicks += ticks() - t0;
        } else {
            lat = engine_->read(a);
            const std::uint64_t d = ticks() - t0;
            spans_.meeReadTicks += d;
            spans_.meeReadSamples.push_back(sample(d));
        }
        spans_.memInAccessTicks += ticks() - t0;
        return lat;
    }

    /**
     * A write-back from CacheHierarchy::access, or with @p flush the
     * persistence-model flush System::step issues after the access.
     */
    Cycle
    memWrite(Addr a, unsigned core, bool flush)
    {
        const std::uint64_t t0 = ticks();
        Cycle lat = 0;
        if (sharded_ != nullptr) {
            lat = sharded_->write(a, nullptr, core);
            spans_.shardWriteTicks += ticks() - t0;
            ++spans_.shardWrites;
        } else {
            lat = engine_->write(a);
            const std::uint64_t d = ticks() - t0;
            if (!flush) // step() times flushes as their own span
                spans_.meeWriteTicks += d;
            spans_.meeWriteSamples.push_back(sample(d));
        }
        if (!flush)
            spans_.memInAccessTicks += ticks() - t0;
        return lat;
    }

    void
    sync()
    {
        if (sharded_ == nullptr)
            return;
        const std::uint64_t t0 = ticks();
        sharded_->flush();
        std::vector<Cycle> lat(cores_.size(), 0);
        sharded_->harvestLatencies(lat);
        for (std::size_t i = 0; i < cores_.size(); ++i)
            cores_[i].cycles += lat[i];
        spans_.shardSyncTicks += ticks() - t0;
    }

    void
    chargeOs(Core &c)
    {
        const std::uint64_t now = allocator_->instructions();
        if (now != lastOs_) {
            const std::uint64_t delta = now - lastOs_;
            lastOs_ = now;
            osInstructions_ += delta;
            c.cycles += delta * config_.baseCpi;
        }
    }

    void
    step(Core &c, unsigned idx)
    {
        ++c.instructions;
        c.cycles += config_.baseCpi;
        if (c.workload->timedReplay()) {
            if (!c.workload->replayTick())
                return;
        } else if (!c.workload->issuesMemRef(c.rng)) {
            return;
        }
        // Chained stamps: each span ends where the next begins, so the
        // clock reads themselves land inside attributed spans.
        const std::uint64_t t0 = ticks();
        const sim::MemRef ref = c.workload->next();
        const std::uint64_t t1 = ticks();
        if (ref.churnPage)
            c.pageTable->unmapPage(ref.churnVictim);
        const Addr paddr = c.pageTable->translate(ref.vaddr);
        const std::uint64_t t2 = ticks();
        c.cycles += c.hierarchy->access(paddr, ref.type);
        const std::uint64_t t3 = ticks();
        if (ref.flush) {
            c.cycles += memWrite(paddr, idx, true);
            spans_.flushWriteTicks += ticks() - t3;
        }
        chargeOs(c);
        spans_.nextTicks += t1 - t0;
        ++spans_.nextCalls;
        spans_.translateTicks += t2 - t1;
        ++spans_.translateCalls;
        spans_.accessTicks += t3 - t2;
        ++spans_.accessCalls;
    }

    void
    advance(std::uint64_t n)
    {
        constexpr std::uint64_t kQuantum = 64; // System's lockstep quantum
        std::uint64_t done = 0;
        while (done < n) {
            const std::uint64_t q = std::min(kQuantum, n - done);
            for (std::size_t ci = 0; ci < cores_.size(); ++ci)
                for (std::uint64_t i = 0; i < q; ++i)
                    step(cores_[ci], static_cast<unsigned>(ci));
            done += q;
        }
    }

    Snapshot
    snapshot() const
    {
        Snapshot s;
        for (const auto &c : cores_) {
            s.coreCycles.push_back(c.cycles);
            s.coreInstructions.push_back(c.instructions);
            s.memReads.push_back(c.hierarchy->memReads());
            s.memWrites.push_back(c.hierarchy->memWrites());
            s.faults.push_back(c.pageTable->faults());
        }
        s.osInstructions = osInstructions_;
        auto add = [&s](const mee::MemoryEngine &eng) {
            s.mcacheHits += eng.metaCache().stats().get("hits");
            s.mcacheMisses += eng.metaCache().stats().get("misses");
            s.subtreeHits += eng.stats().get("subtree_hits");
            s.subtreeMisses += eng.stats().get("subtree_misses");
            s.movements += eng.stats().get("subtree_movements");
        };
        if (sharded_ != nullptr) {
            for (unsigned i = 0; i < sharded_->sliceCount(); ++i)
                add(sharded_->shard(i).engine());
        } else {
            add(*engine_);
        }
        return s;
    }

    sim::SystemConfig config_;
    obs::StatRegistry registry_;
    std::unique_ptr<mem::NvmDevice> nvm_;
    std::unique_ptr<mee::MemoryEngine> engine_;
    std::unique_ptr<shard::ShardedEngine> sharded_;
    std::unique_ptr<os::BuddyAllocator> allocator_;
    std::unique_ptr<cache::Cache> llc_;
    std::vector<Core> cores_;
    unsigned added_ = 0;
    std::uint64_t lastOs_ = 0;
    std::uint64_t osInstructions_ = 0;
    Spans spans_;
    std::string preRoiDump_;
    double ageS_ = 0, warmS_ = 0, roiS_ = 0;
    double nsPerTick_ = 1.0;
};

/** Outputs, phase times and layer spans of one composed run. */
struct ComposedRun
{
    Op op;
    std::string preRoiDump;
    double ageS = 0, nsPerTick = 1.0;
    Spans spans;
};

ComposedRun
composeRun(const Spec &spec)
{
    ComposedRun run;
    const auto t0 = Clock::now();
    ComposedSystem sys(spec.config);
    for (const auto &w : spec.processes)
        sys.addProcess(w);
    run.op.setupS = secondsBetween(t0, Clock::now());
    run.op.result = sys.run(spec.instructions, spec.warmup);
    run.op.warmS = sys.warmS();
    run.op.roiS = sys.roiS();
    run.op.dump = sys.dump();
    if (spec.recover) {
        const auto t1 = Clock::now();
        const mee::RecoveryReport rep = sys.crashAndRecover();
        run.op.recoverS = secondsBetween(t1, Clock::now());
        run.op.recovered = rep.success;
        run.op.recovery = recoveryText(rep);
    }
    run.op.violations = sys.violations();
    run.preRoiDump = sys.preRoiDump();
    run.ageS = sys.ageS();
    run.nsPerTick = sys.nsPerTick();
    run.spans = sys.spans();
    return run;
}

/** Print a composed run's spans and its fidelity to @p reference. */
void
printTraced(const std::string &label, const ComposedRun &run,
            const Op &reference)
{
    const Op &op = run.op;
    const bool cycles_match = op.result.cycles == reference.result.cycles;
    const bool result_match =
        resultText(op.result) == resultText(reference.result);
    const bool dump_match = op.dump == reference.dump;
    const bool recovery_match = op.recovery == reference.recovery;
    const Spans &s = run.spans;
    const double k = run.nsPerTick;
    auto ns = [k](std::uint64_t t) { return static_cast<double>(t) * k; };
    JsonLine()
        .str("traced", label)
        .flag("fidelity",
              cycles_match && result_match && dump_match && recovery_match)
        .flag("cycles_match", cycles_match)
        .flag("result_match", result_match)
        .flag("dump_match", dump_match)
        .flag("recovery_match", recovery_match)
        .flag("recovered", op.recovered)
        .count("violations", op.violations)
        .count("cycles", op.result.cycles)
        .count("reference_cycles", reference.result.cycles)
        .count("instructions", op.result.appInstructions)
        .count("page_faults", op.result.pageFaults)
        .num("setup_s", op.setupS)
        .num("age_s", run.ageS)
        .num("warm_s", op.warmS)
        .num("roi_s", op.roiS)
        .num("recover_s", op.recoverS)
        .num("wall_s", op.wallS())
        .num("untraced_wall_s", reference.wallS())
        .num("next_ns", ns(s.nextTicks))
        .count("next_calls", s.nextCalls)
        .num("translate_ns", ns(s.translateTicks))
        .count("translate_calls", s.translateCalls)
        .num("access_ns", ns(s.accessTicks))
        .count("access_calls", s.accessCalls)
        .num("mem_in_access_ns", ns(s.memInAccessTicks))
        .num("mee_read_ns", ns(s.meeReadTicks))
        .num("mee_write_ns", ns(s.meeWriteTicks))
        .num("flush_write_ns", ns(s.flushWriteTicks))
        .count("mee_reads", s.meeReadSamples.size())
        .count("mee_writes", s.meeWriteSamples.size())
        .num("mee_read_p50", percentile(s.meeReadSamples, 50) * k)
        .num("mee_read_p99", percentile(s.meeReadSamples, 99) * k)
        .num("mee_write_p50", percentile(s.meeWriteSamples, 50) * k)
        .num("mee_write_p99", percentile(s.meeWriteSamples, 99) * k)
        .num("shard_read_ns", ns(s.shardReadTicks))
        .num("shard_write_ns", ns(s.shardWriteTicks))
        .count("shard_writes", s.shardWrites)
        .num("shard_sync_ns", ns(s.shardSyncTicks))
        .raw("pre_dump", run.preRoiDump)
        .raw("post_dump", op.dump)
        .str("recovery", op.recovery)
        .print();
}

/**
 * Host ns per 64 B block of the fast-plane crypto kernels, median of
 * several timed bursts.
 */
void
traceCrypto(std::uint64_t seed)
{
    const crypto::CryptoSuite suite =
        crypto::CryptoSuite::make(crypto::CryptoPlane::Fast, seed);
    constexpr std::size_t kBlocks = 4096;
    std::vector<std::uint8_t> buf(kBlocks * kBlockSize);
    Rng rng(seed);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    std::uint64_t sink = 0;

    // Median over 7 bursts of ns per block; batch(i, width) processes
    // blocks i .. i + width - 1.
    constexpr std::size_t kBurst = kBlocks * 8;
    auto time_per_block = [](std::size_t width, auto &&batch) {
        std::vector<double> per_block;
        for (int rep = 0; rep < 7; ++rep) {
            const auto t0 = Clock::now();
            for (std::size_t i = 0; i + width <= kBurst; i += width)
                batch(i, width);
            per_block.push_back(secondsBetween(t0, Clock::now()) * 1e9 /
                                static_cast<double>(kBurst));
        }
        std::sort(per_block.begin(), per_block.end());
        return per_block[per_block.size() / 2];
    };
    auto mac = [&](std::size_t i, std::size_t width) {
        crypto::MacRequest reqs[8];
        std::uint64_t out[8];
        for (std::size_t k = 0; k < width; ++k)
            reqs[k] = {buf.data() + (i + k) % kBlocks * kBlockSize,
                       kBlockSize, i + k};
        suite.hash->mac64xN(reqs, width, out);
        for (std::size_t k = 0; k < width; ++k)
            sink ^= out[k];
    };
    auto pad = [&](std::size_t i, std::size_t width) {
        crypto::PadRequest reqs[8];
        std::uint8_t out[8 * kBlockSize];
        for (std::size_t k = 0; k < width; ++k)
            reqs[k] = {(i + k) * kBlockSize, i + k,
                       static_cast<std::uint8_t>(k)};
        suite.enc->padxN(reqs, width, out);
        sink ^= out[0];
    };
    const double mac1 = time_per_block(1, mac);
    const double mac8 = time_per_block(8, mac);
    const double pad8 = time_per_block(8, pad);
    JsonLine()
        .num("mac_ns_per_block_w1", mac1)
        .num("mac_ns_per_block_w8", mac8)
        .num("pad_ns_per_block_w8", pad8)
        .count("sink", sink)
        .print();
}

/** mp-sweep traced: each job's construction, warm-up and ROI timed. */
void
traceSweep(std::uint64_t seed)
{
    const std::vector<sweep::Job> jobs = sweepJobs(seed);
    std::vector<Op> ops(jobs.size());
    const auto t0 = Clock::now();
    sweep::parallelFor(
        jobs.size(),
        [&](std::size_t i) { ops[i] = runSystemOp(Spec{jobs[i]}); },
        kSweepWorkers);
    const double wall = secondsBetween(t0, Clock::now());
    std::vector<sweep::Outcome> outs(jobs.size());
    std::uint64_t violations = 0;
    double job_sum = 0, setup_sum = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        outs[i].result = ops[i].result;
        outs[i].statsJson = ops[i].dump;
        violations += ops[i].violations;
        job_sum += ops[i].wallS();
        setup_sum += ops[i].setupS;
    }
    JsonLine()
        .str("sweep_digest", sweepDigest(outs))
        .count("jobs", jobs.size())
        .count("workers", kSweepWorkers)
        .num("wall_s", wall)
        .num("job_wall_sum_s", job_sum)
        .num("job_setup_sum_s", setup_sum)
        .count("violations", violations)
        .print();

    // Per-access layer spans come from composing the AMNT job of each
    // pair (2 cores, shared LLC) against that job's System result.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const sweep::Job &job = jobs[i];
        if (job.config.protocol != mee::Protocol::Amnt ||
            job.config.amntpp)
            continue;
        printTraced(job.processes[0].name + "+" + job.processes[1].name,
                    composeRun(Spec{job}), ops[i]);
    }
}

// ---------------------------------------------------------------- main

struct Args
{
    std::string mode, workload, traceFile, out;
    std::uint64_t seed = 1;
    bool tracedFirst = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    if (argc < 2)
        fatal("usage: perfbench_driver record|run|setup|trace [options]");
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            fatal("missing value for %s", key.c_str());
        const char *val = argv[++i];
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--trace-file")
            a.traceFile = val;
        else if (key == "--out")
            a.out = val;
        else if (key == "--traced-first")
            a.tracedFirst = std::strtoull(val, nullptr, 10) != 0;
        else
            fatal("unknown option %s", key.c_str());
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    if (args.mode == "record") {
        if (args.out.empty())
            fatal("record needs --out");
        // The reference stream is protocol-independent; record it
        // under the volatile baseline over the run's full length.
        sim::SystemConfig cfg =
            sim::SystemConfig::singleProgram(mee::Protocol::Volatile);
        cfg.traceRecordPath = args.out;
        {
            sim::System sys(cfg);
            sys.addProcess(gupsWorkload(args.seed));
            sys.run(kInstructions, kWarmup);
        }
        JsonLine().str("recorded", args.out).print();
        return 0;
    }

    if (args.workload == "mp-sweep") {
        if (args.mode == "run")
            runSweep(args.seed);
        else if (args.mode == "setup")
            sweepSetup(args.seed);
        else if (args.mode == "trace")
            traceSweep(args.seed);
        else
            fatal("unknown mode '%s'", args.mode.c_str());
    } else {
        const Spec spec = singleSpec(args.workload, args.seed,
                                     args.traceFile);
        if (args.mode == "run") {
            printOp(runSystemOp(spec));
        } else if (args.mode == "trace") {
            // The first op of a process pays its cold start; run.py
            // alternates which op goes first so trace.overhead is fair.
            std::optional<ComposedRun> traced;
            if (args.tracedFirst)
                traced = composeRun(spec);
            const Op reference = runSystemOp(spec);
            if (!traced)
                traced = composeRun(spec);
            printOp(reference);
            printTraced(args.workload, *traced, reference);
        } else {
            fatal("unknown mode '%s'", args.mode.c_str());
        }
    }
    if (args.mode == "trace")
        traceCrypto(args.seed);
    JsonLine().num("peak_rss_mb", peakRssMb()).print();
    return 0;
}
