#include "sim/presets.hh"

#include <unordered_map>

#include "common/log.hh"

namespace amnt::sim
{

namespace
{

struct P
{
    std::uint64_t pages;  ///< footprint in 4 KB pages
    double intensity;     ///< memory refs per instruction
    double writes;        ///< write fraction
    double hotPages;      ///< hot cluster as fraction of footprint
    double readHot;       ///< reads hitting the hot cluster
    double writeHot;      ///< writes hitting the hot cluster
    double zipf;          ///< skew inside the hot cluster
    double stream;        ///< sequential component
    double run;           ///< spatial-run continuation probability
    std::uint64_t churn;  ///< refs per page churn (0 = none)
};

WorkloadConfig
build(const std::string &name, const P &p)
{
    WorkloadConfig w;
    w.name = name;
    w.footprintPages = p.pages;
    w.memIntensity = p.intensity;
    w.writeFraction = p.writes;
    w.hotPagesFraction = p.hotPages;
    w.readHotFraction = p.readHot;
    w.writeHotFraction = p.writeHot;
    w.zipfAlpha = p.zipf;
    w.streamFraction = p.stream;
    w.spatialRun = p.run;
    w.churnEvery = p.churn;
    // Distinct deterministic seed per benchmark.
    w.seed = 0x9e3779b9;
    for (char c : name)
        w.seed = w.seed * 131 + static_cast<unsigned char>(c);
    return w;
}

// PARSEC 3.0 simlarge characteristics.
//   pages intens writes hotPg readH writeH zipf stream run churn
const std::unordered_map<std::string, P> kParsec = {
    {"blackscholes", {4096, 0.028, 0.22, 0.30, 0.95, 0.95, 0.9, 0.05, 0.80, 0}},
    {"bodytrack", {24576, 0.084, 0.30, 0.08, 0.80, 0.90, 0.9, 0.05, 0.70, 8192}},
    {"canneal", {393216, 0.210, 0.11, 0.01, 0.05, 0.90, 0.7, 0.02, 0.05, 0}},
    {"dedup", {196608, 0.126, 0.38, 0.05, 0.60, 0.85, 0.8, 0.15, 0.70, 4096}},
    {"facesim", {98304, 0.112, 0.33, 0.06, 0.70, 0.88, 0.8, 0.10, 0.75, 0}},
    {"ferret", {98304, 0.098, 0.22, 0.05, 0.65, 0.85, 0.8, 0.10, 0.65, 0}},
    {"fluidanimate", {65536, 0.126, 0.38, 0.08, 0.75, 0.90, 0.9, 0.08, 0.75, 8192}},
    {"freqmine", {49152, 0.056, 0.22, 0.08, 0.80, 0.90, 0.9, 0.05, 0.60, 0}},
    {"raytrace", {98304, 0.070, 0.11, 0.06, 0.75, 0.85, 0.8, 0.05, 0.55, 0}},
    {"streamcluster", {24576, 0.168, 0.06, 0.10, 0.45, 0.85, 0.6, 0.50, 0.85, 0}},
    {"swaptions", {4096, 0.015, 0.30, 0.25, 0.92, 0.95, 0.9, 0.02, 0.70, 0}},
    {"vips", {49152, 0.084, 0.33, 0.06, 0.65, 0.85, 0.8, 0.20, 0.80, 0}},
    {"x264", {49152, 0.070, 0.27, 0.08, 0.75, 0.88, 0.8, 0.15, 0.80, 0}},
};

// SPEC CPU2017 speed, ref inputs, SimPoint regions of interest.
const std::unordered_map<std::string, P> kSpec = {
    {"perlbench", {32768, 0.056, 0.27, 0.08, 0.80, 0.90, 0.9, 0.05, 0.60, 0}},
    {"gcc", {65536, 0.084, 0.32, 0.06, 0.70, 0.85, 0.8, 0.08, 0.50, 4096}},
    {"bwaves", {196608, 0.154, 0.16, 0.02, 0.40, 0.80, 0.7, 0.82, 0.85, 0}},
    {"mcf", {262144, 0.280, 0.05, 0.02, 0.25, 0.85, 0.7, 0.02, 0.15, 0}},
    {"cactuBSSN", {163840, 0.168, 0.08, 0.04, 0.50, 0.85, 0.7, 0.35, 0.80, 0}},
    {"lbm", {327680, 0.210, 0.42, 0.02, 0.40, 0.85, 0.7, 0.92, 0.85, 0}},
    {"omnetpp", {98304, 0.126, 0.27, 0.05, 0.60, 0.85, 0.8, 0.03, 0.30, 2048}},
    {"wrf", {131072, 0.112, 0.22, 0.05, 0.65, 0.85, 0.8, 0.30, 0.80, 0}},
    {"xalancbmk", {65536, 0.098, 0.22, 0.06, 0.70, 0.85, 0.8, 0.05, 0.40, 0}},
    {"x264", {49152, 0.070, 0.27, 0.08, 0.75, 0.88, 0.8, 0.15, 0.80, 0}},
    {"imagick", {32768, 0.042, 0.32, 0.10, 0.85, 0.90, 0.9, 0.10, 0.80, 0}},
    {"leela", {8192, 0.021, 0.22, 0.15, 0.90, 0.92, 0.9, 0.02, 0.50, 0}},
    {"nab", {24576, 0.056, 0.27, 0.08, 0.80, 0.88, 0.9, 0.05, 0.70, 0}},
    {"exchange2", {2048, 0.007, 0.30, 0.25, 0.92, 0.95, 0.9, 0.01, 0.70, 0}},
    {"fotonik3d", {196608, 0.140, 0.22, 0.02, 0.40, 0.80, 0.7, 0.82, 0.85, 0}},
    {"roms", {163840, 0.126, 0.22, 0.02, 0.40, 0.80, 0.7, 0.80, 0.85, 0}},
    {"xz", {262144, 0.196, 0.50, 0.03, 0.75, 0.97, 0.8, 0.03, 0.65, 4096}},
    {"deepsjeng", {131072, 0.112, 0.38, 0.06, 0.70, 0.94, 0.9, 0.03, 0.30, 0}},
};

WorkloadConfig
lookup(const std::unordered_map<std::string, P> &table,
       const std::string &name, const char *suite)
{
    auto it = table.find(name);
    if (it == table.end())
        fatal("unknown %s benchmark '%s'", suite, name.c_str());
    return build(name, it->second);
}

/**
 * The synthetic generator suite. Intensities and footprints are
 * chosen so every kind is memory-bound at bench scale; the write
 * fractions follow the archetypes (GUPS pairs are inherently 50%
 * writes regardless of the knob).
 */
WorkloadConfig
buildSynthetic(const std::string &name, WorkloadKind kind)
{
    WorkloadConfig w = build(name, {65536, 0.15, 0.30, 0.05, 0.7,
                                    0.8, 0.9, 0.0, 0.0, 0});
    w.kind = kind;
    switch (kind) {
      case WorkloadKind::Zipfian:
        w.zipfAlpha = 0.99;
        break;
      case WorkloadKind::Gups:
        w.footprintPages = 131072;
        w.memIntensity = 0.20;
        break;
      case WorkloadKind::Stream:
        w.memIntensity = 0.25;
        break;
      case WorkloadKind::KeyValue:
        w.writeFraction = 0.20; // put share
        w.zipfAlpha = 0.9;
        w.kvValueBlocks = 4;
        // Storage semantics: every put block persists immediately.
        w.flushWriteFraction = 1.0;
        break;
      case WorkloadKind::PointerChase:
        w.footprintPages = 131072;
        w.memIntensity = 0.30;
        w.writeFraction = 0.10;
        break;
      default:
        break;
    }
    return w;
}

const std::unordered_map<std::string, WorkloadKind> kSynthetic = {
    {"zipfian", WorkloadKind::Zipfian},
    {"gups", WorkloadKind::Gups},
    {"stream", WorkloadKind::Stream},
    {"kvstore", WorkloadKind::KeyValue},
    {"chase", WorkloadKind::PointerChase},
};

} // namespace

WorkloadConfig
parsecPreset(const std::string &name)
{
    return lookup(kParsec, name, "PARSEC");
}

WorkloadConfig
specPreset(const std::string &name)
{
    return lookup(kSpec, name, "SPEC CPU2017");
}

WorkloadConfig
syntheticPreset(const std::string &name)
{
    auto it = kSynthetic.find(name);
    if (it == kSynthetic.end())
        fatal("unknown synthetic workload '%s'", name.c_str());
    return buildSynthetic(name, it->second);
}

WorkloadConfig
namedWorkload(const std::string &name)
{
    if (kParsec.count(name) != 0)
        return parsecPreset(name);
    if (kSpec.count(name) != 0)
        return specPreset(name);
    if (kSynthetic.count(name) != 0)
        return syntheticPreset(name);
    fatal("unknown workload '%s' (not a PARSEC, SPEC CPU2017, or "
          "synthetic preset; synthetic: zipfian gups stream kvstore "
          "chase)",
          name.c_str());
}

const std::vector<std::string> &
parsecBenchmarks()
{
    static const std::vector<std::string> order = {
        "blackscholes", "bodytrack", "canneal", "dedup", "facesim",
        "ferret", "fluidanimate", "freqmine", "raytrace",
        "streamcluster", "swaptions", "vips", "x264",
    };
    return order;
}

const std::vector<std::pair<std::string, std::string>> &
parsecMultiprogramPairs()
{
    static const std::vector<std::pair<std::string, std::string>> pairs =
        {
            {"bodytrack", "fluidanimate"},
            {"swaptions", "streamcluster"},
            {"x264", "freqmine"},
        };
    return pairs;
}

const std::vector<std::string> &
specBenchmarks()
{
    static const std::vector<std::string> order = {
        "perlbench", "gcc", "bwaves", "mcf", "cactuBSSN", "lbm",
        "omnetpp", "wrf", "xalancbmk", "x264", "imagick", "leela",
        "nab", "exchange2", "fotonik3d", "roms", "xz", "deepsjeng",
    };
    return order;
}

} // namespace amnt::sim
