/**
 * @file
 * Shared pieces of the repository benchmark: options, the seeded
 * generator, sample statistics, the result report and the host
 * reference kernel. See ../README.md for what the workloads measure.
 */

#ifndef WIZBENCH_COMMON_H
#define WIZBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace wizbench {

using Clock = std::chrono::steady_clock;

/** Monotonic microseconds since an arbitrary, process-wide origin. */
double nowUs();

/**
 * Faults the self-tests plant to prove the checks catch them. All off
 * in every benchmark run.
 */
struct Faults
{
    bool wrongChecksum = false;  ///< compare against a corrupted value
    bool emptyDetach = false;    ///< detach through an emptied batch
    double generatorStallMs = 0; ///< generator sleeps this long once
};

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    std::string dataDir;  ///< directory holding np_table.txt etc.
    std::string outDir;   ///< where traced runs write their spans
    Faults faults;
};

/** splitmix64: small, fast and identical on every platform. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : _s(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (_s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    uint32_t below(uint32_t n) { return (uint32_t)(next() % n); }

    /** Uniform in [0, 1). */
    double uniform() { return (double)(next() >> 11) * 0x1p-53; }

    template <typename T>
    void
    shuffle(std::vector<T>& v)
    {
        for (size_t i = v.size(); i > 1; i--) {
            std::swap(v[i - 1], v[below((uint32_t)i)]);
        }
    }

  private:
    uint64_t _s;
};

/** Quantile with linear interpolation between order statistics. */
double quantile(std::vector<double> xs, double q);

/** Median of @p xs (0 when empty). */
inline double median(const std::vector<double>& xs)
{
    return quantile(xs, 0.5);
}

/** Largest resident set size of this process so far, in MiB. */
double peakRssMb();

/**
 * One run's outcome: every op attempted and failed, the failures'
 * descriptions, and the metrics in print order.
 */
class Report
{
  public:
    void put(const std::string& name, double value, const std::string& unit);

    /** Counts one attempted op. */
    void attempt() { _attempted++; }

    /** Counts one failed op and keeps the first few descriptions. */
    void fail(const std::string& what);

    /** Adds @p other's attempted and failed ops to this report's. */
    void absorbChecks(const Report& other);

    uint64_t attempted() const { return _attempted; }
    uint64_t failed() const { return _failed; }
    const std::vector<std::string>& failures() const { return _failures; }

    /** The value of metric @p name; NaN if absent. */
    double get(const std::string& name) const;

    /** The result object: {"correct","attempted","failed","metrics"}. */
    std::string json() const;

    /** All metrics as "name value unit" lines (for the detail dump). */
    std::string table() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> _metrics;
    std::vector<std::string> _failures;
    uint64_t _attempted = 0;
    uint64_t _failed = 0;
};

/**
 * The host reference kernel (refkernel.cc): fixed native integer and
 * floating-point work that never touches engine code. Timing it
 * between jobs tracks how fast the host runs at that moment.
 * Returns a checksum so the work cannot be optimised away.
 */
uint64_t referenceKernel(uint32_t rounds);

/** Times one call of the reference kernel, in ms. */
double timeReferenceKernel();

/** The reference kernel's nominal time on the host the committed
    tables were generated on (see README.md, "Host scaling"). */
constexpr double kNominalRefMs = 0.30;

} // namespace wizbench

#endif // WIZBENCH_COMMON_H
