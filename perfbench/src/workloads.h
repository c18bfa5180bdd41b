/**
 * @file
 * The three workloads (../README.md says why each exists). Each runs
 * its set-ups and its timed phase, checks every output and puts every
 * metric it has into the report: the end-to-end ones and the
 * per-layer ones. The driver (main.cc) picks what to print.
 */

#ifndef WIZBENCH_WORKLOADS_H
#define WIZBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "corpus.h"
#include "trace.h"
#include "wasm/validator.h"

namespace wizbench {

// Committed workload sizes. The closed loops run whole shuffled passes
// over the corpus, a fixed number per second of run time, so one seed
// always gives the same job list and the same exact counts, and every
// seed gives the same job mix; the rates were chosen so a run takes
// about --seconds on the reference host (README.md, "Sizing").
constexpr double kCleanIntJobsPerSecond = 150;
constexpr double kProbeChurnSessionsPerSecond = 7;
/** serve-fleet arrival rate: about a fifth of what 2 workers sustain
    (mean service about 7 ms), so the reference host's short periodic
    slowdowns queue few requests (README.md, "Arrival rate"). */
constexpr double kServeRequestsPerSecond = 50;
constexpr uint32_t kServeWorkers = 2;
/**
 * Set-up samples per run: the first is cold, and setup_s is the median
 * of the rest. The closed loops run kSetupRepsBefore of them before the
 * timed phase and spread the others across it, so setup_s samples the
 * host over the whole run instead of its first few milliseconds.
 */
constexpr int kSetupReps = 21;
constexpr int kSetupRepsBefore = 5;
/**
 * Set-ups timed back to back in one sample, which reports their mean.
 * One decode + validate of the corpus takes about 1 ms, too short to
 * time steadily; a sample of 16 takes about 16 ms.
 */
constexpr int kSetupPasses = 16;
/** The same for serve-fleet, whose one set-up takes about 8 ms. */
constexpr int kServeSetupPasses = 4;

/** True before the jobs (of @p jobs) that get a spread-out set-up:
    kSetupReps - kSetupRepsBefore of them, evenly spaced. */
inline bool
setupDue(size_t job, size_t jobs)
{
    const size_t reps = kSetupReps - kSetupRepsBefore;
    return (job * reps) / jobs != ((job + 1) * reps) / jobs;
}

/** Whole passes over @p programs for @p seconds at @p perSecond. */
uint32_t passesFor(double perSecond, int seconds, size_t programs);

/** Decodes and validates every program of @p corpus (one set-up). */
std::vector<std::shared_ptr<const wizpp::ValidatedModule>>
decodeAndValidate(const std::vector<Program>& corpus, Tracer& tracer,
                  Report& report, std::vector<double>* decodeUs,
                  std::vector<double>* validateUs);

/** The set-up samples of one run. */
struct Setups
{
    std::vector<double> seconds, decodeUs, validateUs;

    /**
     * Times one sample of kSetupPasses set-ups over @p corpus. Returns
     * the modules the last pass built; empty if a pass failed.
     */
    std::vector<std::shared_ptr<const wizpp::ValidatedModule>>
    run(const std::vector<Program>& corpus, Tracer& tracer, Report& report);
};

void runCleanInt(const Options& opt, const std::vector<Program>& corpus,
                 Tracer& tracer, Report& report);
void runProbeChurn(const Options& opt, const std::vector<Program>& corpus,
                   Tracer& tracer, Report& report);
void runServeFleet(const Options& opt, const std::vector<Program>& corpus,
                   Tracer& tracer, Report& report);

/** Puts setup_s, host.cold_setup_s and the wasm.* metrics. */
void putSetupMetrics(Report& report, const Setups& setups,
                     uint64_t moduleBytes);

/** Puts the p50/p90/p99 of @p ms under @p prefix (_p50 ...). */
void putQuantiles(Report& report, const std::string& prefix,
                  const std::vector<double>& xs, const std::string& unit,
                  std::initializer_list<int> percents);

/** Puts the engine.* counters from summed Engine::stats deltas. */
struct EngineCounters
{
    uint64_t fusedWindows = 0, functionsCompiled = 0, jitInvalidations = 0,
             frameDeopts = 0, fusionSplits = 0, fusionRefusions = 0;
    void add(const wizpp::Engine& e);
    void put(Report& report) const;
};

} // namespace wizbench

#endif // WIZBENCH_WORKLOADS_H
