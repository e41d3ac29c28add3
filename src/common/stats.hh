/**
 * @file
 * Lightweight statistics containers in the spirit of gem5's stats
 * package: named scalar counters, ratios computed on demand, and
 * fixed-bin histograms, all dumpable as text.
 */

#ifndef AMNT_COMMON_STATS_HH
#define AMNT_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace amnt
{

/**
 * A group of named scalar statistics. Cheap to increment, and
 * serializable in a stable (sorted) order for test assertions and
 * bench output.
 */
class StatGroup
{
  public:
    /** Add @p delta to the counter named @p name (creating it at 0). */
    void
    inc(const std::string &name, std::uint64_t delta = 1)
    {
        counters_[name] += delta;
    }

    /** Set the counter named @p name. */
    void
    set(const std::string &name, std::uint64_t value)
    {
        counters_[name] = value;
    }

    /**
     * Stable reference to the counter named @p name (created at 0).
     * Hot paths resolve their counters once and bump through the
     * reference, skipping the per-event string lookup; std::map never
     * invalidates references, and reset() zeroes values in place.
     */
    std::uint64_t &
    counter(const std::string &name)
    {
        return counters_[name];
    }

    /** Value of the counter, or 0 when never touched. */
    std::uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    /** a / (a + b) as a double; 0 when the denominator is 0. */
    double
    ratio(const std::string &num, const std::string &denom_extra) const
    {
        const double a = static_cast<double>(get(num));
        const double b = static_cast<double>(get(denom_extra));
        return (a + b) == 0.0 ? 0.0 : a / (a + b);
    }

    /** Reset all counters to zero (names are kept). */
    void
    reset()
    {
        for (auto &kv : counters_)
            kv.second = 0;
    }

    /** All counters in sorted-name order. */
    const std::map<std::string, std::uint64_t> &all() const
    {
        return counters_;
    }

    /** Multi-line "name value" dump. */
    std::string dump(const std::string &prefix = "") const;

  private:
    std::map<std::string, std::uint64_t> counters_;
};

/**
 * A StatGroup counter resolved on its first bump. A per-event stat
 * that may never fire cannot be resolved through counter() up front:
 * that creates the key, and a stat that never fired is absent from
 * dumps. After the first bump, bumps skip the string-keyed lookup.
 * Always bump with the same group.
 */
class LazyCounter
{
  public:
    explicit LazyCounter(const char *name) : name_(name) {}

    void
    add(StatGroup &group, std::uint64_t delta = 1)
    {
        if (slot_ == nullptr)
            slot_ = &group.counter(name_);
        *slot_ += delta;
    }

  private:
    const char *name_;
    std::uint64_t *slot_ = nullptr;
};

/**
 * Fixed-bin histogram over [lo, hi) with percentile queries.
 *
 * Bins are uniform either in the value (Scale::Linear) or in its
 * logarithm (Scale::Log, for latency-style long tails; requires
 * lo > 0). Samples outside [lo, hi) are tallied in separate
 * underflow/overflow counters — they still contribute to count() and
 * mean(), but no longer distort the edge bins.
 *
 * percentile(p) uses the nearest-rank definition (the smallest
 * recorded value v such that at least ceil(p/100 * count) samples are
 * <= v) resolved at bin granularity: it returns the lower edge of the
 * bin holding that rank, which is exactly quantize(v*) for the true
 * nearest-rank sample v*. Underflow resolves to lo and overflow to hi,
 * so results are always finite. An empty histogram reports 0.
 */
/**
 * Value snapshot of a Histogram: the summary fields campaign
 * artifacts and registry dumps report, decoupled from the live
 * (mutable) histogram so phase windows can be captured and the
 * histogram reused (see Histogram::snapshotAndReset).
 */
struct HistogramSummary
{
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
};

class Histogram
{
  public:
    enum class Scale { Linear, Log };

    Histogram(double lo, double hi, std::size_t bins,
              Scale scale = Scale::Linear);

    /** Record one sample. */
    void add(double sample, std::uint64_t weight = 1);

    /** Number of samples recorded (including under/overflow). */
    std::uint64_t count() const { return count_; }

    /** Mean of recorded samples (including under/overflow). */
    double mean() const;

    /** Samples below lo / at-or-above hi. */
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    /** Bin contents (in-range samples only). */
    const std::vector<std::uint64_t> &bins() const { return bins_; }

    /** Lower edge of bin @p i (scale-aware). */
    double binLo(std::size_t i) const;

    /**
     * The value a recorded sample resolves to: the lower edge of its
     * bin, lo for underflow, hi for overflow. percentile() answers in
     * this quantized domain, which lets tests compare it exactly
     * against a sorted-reference oracle.
     */
    double quantize(double sample) const;

    /** Nearest-rank percentile for p in (0, 100]; 0 when empty. */
    double percentile(double p) const;

    /** Forget all samples (geometry is kept). */
    void reset();

    /** Summary of the samples recorded so far. */
    HistogramSummary snapshot() const;

    /**
     * Snapshot, then reset in place. The one safe way to reuse a
     * histogram across measurement phases: the returned summary holds
     * phase N's percentiles while the histogram starts phase N+1
     * empty, so later windows can never be polluted by earlier
     * samples (locked by tests/obs/test_histogram_percentiles.cc).
     */
    HistogramSummary snapshotAndReset();

  private:
    /** Bin of @p sample: -1 underflow, bins() overflow. */
    std::ptrdiff_t binIndex(double sample) const;

    double lo_;
    double hi_;
    Scale scale_;
    std::vector<std::uint64_t> bins_;
    std::uint64_t count_ = 0;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    double sum_ = 0.0;
};

} // namespace amnt

#endif // AMNT_COMMON_STATS_HH
