/**
 * @file
 * Workload presets named after the PARSEC 3.0 and SPEC CPU2017
 * benchmarks the paper evaluates.
 *
 * Each preset encodes the published memory behaviour of its namesake
 * (footprint, intensity, write share, locality) at the fidelity the
 * protocols care about; see DESIGN.md for the substitution argument.
 * Key calibration anchors from the paper: canneal has poor metadata
 * cache locality (30.4% hit rate) but spatially tight writes; xz is
 * the most write-intensive SPEC benchmark; swaptions/streamcluster
 * and x264/freqmine pairs are not memory intensive; mcf and
 * cactuBSSN are read-dominated.
 */

#ifndef AMNT_SIM_PRESETS_HH
#define AMNT_SIM_PRESETS_HH

#include <string>
#include <vector>

#include "sim/workload.hh"

namespace amnt::sim
{

/** PARSEC preset by benchmark name; fatal on unknown names. */
WorkloadConfig parsecPreset(const std::string &name);

/** SPEC CPU2017 preset by benchmark name; fatal on unknown names. */
WorkloadConfig specPreset(const std::string &name);

/**
 * Microbenchmark-generator preset by name ("zipfian", "gups",
 * "stream", "kvstore", "chase"); fatal on unknown names. These are
 * the WorkloadKind families of sim/workload.hh at calibrated default
 * parameters.
 */
WorkloadConfig syntheticPreset(const std::string &name);

/**
 * Resolve @p name against every suite — PARSEC, then SPEC CPU2017,
 * then the synthetic generators; fatal (listing the suites) when no
 * suite knows it. This is what `--workload=` feeds.
 */
WorkloadConfig namedWorkload(const std::string &name);

/** The PARSEC benchmarks of Figure 4, in the paper's order. */
const std::vector<std::string> &parsecBenchmarks();

/** The multiprogram pairs of Figures 5-7. */
const std::vector<std::pair<std::string, std::string>> &
parsecMultiprogramPairs();

/** The SPEC benchmarks of Figure 8. */
const std::vector<std::string> &specBenchmarks();

} // namespace amnt::sim

#endif // AMNT_SIM_PRESETS_HH
