/**
 * @file
 * Shard-invariance pins at the system level: the `--shards=N` lane
 * count is pure execution policy, so a full-system run — registry
 * dump included — must be byte-identical at shard counts 1, 2 and 4,
 * under any sweep thread count. Also pins the engine()-on-sharded-
 * system guard.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/presets.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

using namespace amnt;

namespace
{

sim::SystemConfig
shardedConfig(mee::Protocol p, unsigned shards)
{
    sim::SystemConfig cfg = sim::SystemConfig::singleProgram(p);
    cfg.shards = shards;
    // Pin the slice partition explicitly: the invariance contract is
    // "same machine, different lane count".
    cfg.shardOptions.slices = 4;
    return cfg;
}

sim::WorkloadConfig
smallWorkload()
{
    sim::WorkloadConfig w = sim::parsecPreset("bodytrack");
    w.footprintPages = 256;
    return w;
}

} // namespace

TEST(ShardInvariance, SystemRunIsByteIdenticalAcrossShardCounts)
{
    std::string baseline_stats;
    sim::RunResult baseline{};
    for (unsigned shards : {1u, 2u, 4u}) {
        sim::System system(
            shardedConfig(mee::Protocol::Amnt, shards));
        ASSERT_NE(system.sharded(), nullptr);
        EXPECT_EQ(system.sharded()->sliceCount(), 4u);
        system.addProcess(smallWorkload());
        const sim::RunResult res = system.run(20000, 5000);
        const std::string stats = system.statsJson();
        if (shards == 1) {
            baseline_stats = stats;
            baseline = res;
            EXPECT_NE(stats.find("mee.shard0"), std::string::npos);
            continue;
        }
        EXPECT_EQ(stats, baseline_stats) << "shards " << shards;
        EXPECT_EQ(res.cycles, baseline.cycles) << "shards " << shards;
        EXPECT_EQ(res.memReads, baseline.memReads);
        EXPECT_EQ(res.memWrites, baseline.memWrites);
        EXPECT_EQ(res.mcacheHitRate, baseline.mcacheHitRate);
        EXPECT_EQ(res.subtreeHitRate, baseline.subtreeHitRate);
        EXPECT_EQ(res.pageFaults, baseline.pageFaults);
    }
}

TEST(ShardInvariance, SweepStatsIdenticalAcrossShardsAndThreads)
{
    // 3 jobs differing only in lane count, swept at 1 and 8 worker
    // threads: all six statsJson documents must be one byte string.
    std::vector<sweep::Job> jobs;
    for (unsigned shards : {1u, 2u, 4u}) {
        sweep::Job job;
        job.config = shardedConfig(mee::Protocol::Leaf, shards);
        job.processes = {smallWorkload()};
        job.instructions = 20000;
        job.warmup = 5000;
        jobs.push_back(std::move(job));
    }
    std::string baseline;
    for (unsigned threads : {1u, 8u}) {
        const std::vector<sweep::Outcome> out =
            sweep::run(jobs, threads);
        ASSERT_EQ(out.size(), jobs.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
            ASSERT_FALSE(out[i].statsJson.empty());
            if (baseline.empty())
                baseline = out[i].statsJson;
            EXPECT_EQ(out[i].statsJson, baseline)
                << "threads " << threads << " job " << i;
        }
    }
}

TEST(ShardInvarianceDeath, LegacyEngineAccessorRefusesShardedSystem)
{
    sim::System system(shardedConfig(mee::Protocol::Leaf, 1));
    EXPECT_DEATH(system.engine(), "sharded");
}
