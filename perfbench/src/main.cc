// wizbench: the repository benchmark's driver.
//
//   wizbench run --workload <clean-int|probe-churn|serve-fleet>
//                --seed <n> --seconds <s> --trace <0|1> --data <dir>
//                [--out <dir>]
//   wizbench calibrate                # prints a fresh np_table.txt
//   wizbench expect --data <dir>      # prints a fresh expected.txt
//
// `run` prints every metric it measured, one per line, then the
// result object as its last line. perfbench/run.py builds this binary
// and picks the metrics BENCHMARK.json declares.

#include <iostream>
#include <string>

#include "workloads.h"

namespace wizbench {
int calibrateMain();
int expectMain(const std::string& dataDir);
}

using namespace wizbench;

namespace {

int
usage()
{
    std::cerr << "usage: wizbench run --workload <clean-int|probe-churn|"
                 "serve-fleet> --seed <n> --seconds <s> --trace <0|1> "
                 "--data <dir> [--out <dir>]\n"
                 "       wizbench calibrate\n"
                 "       wizbench expect --data <dir>\n";
    return 2;
}

using RunFn = void (*)(const Options&, const std::vector<Program>&, Tracer&,
                       Report&);

RunFn
workloadFn(const std::string& name)
{
    if (name == "clean-int") return runCleanInt;
    if (name == "probe-churn") return runProbeChurn;
    if (name == "serve-fleet") return runServeFleet;
    return nullptr;
}

/**
 * End-to-end times are reported scaled by kNominalRefMs / host.ref_ms,
 * which takes out most of the host's own run-to-run speed changes
 * (README.md, "Host scaling"); the raw values stay as host.raw.*. The
 * closed loops scale all four times. serve-fleet scales its request
 * latencies only: its wall_s follows the arrival schedule, and its
 * set-ups run outside the phase the kernel is timed in.
 */
void
scaleByHost(const std::string& workload, Report& report)
{
    const double factor = kNominalRefMs / report.get("host.ref_ms");
    std::vector<std::pair<const char*, const char*>> scaled = {
        {"job_ms_p50", "ms"}, {"job_ms_p90", "ms"}};
    if (workload != "serve-fleet") {
        scaled.insert(scaled.begin(), {{"setup_s", "s"}, {"wall_s", "s"}});
    }
    for (const auto& [name, unit] : scaled) {
        const double raw = report.get(name);
        report.put(std::string("host.raw.") + name, raw, unit);
        report.put(name, raw * factor, unit);
    }
}

/** Folds a trace into per-layer metrics; fails the run if its spans do
    not nest. */
void
putTraceMetrics(const Tracer& tracer, Report& report, double untracedWallS)
{
    TraceSummary sum = summarize(tracer);
    double jobsUs = 0, unattributedUs = 0;
    for (double x : sum.jobUs) jobsUs += x;
    for (double x : sum.unattributedUs) unattributedUs += x;
    for (int l = 1; l < (int)Layer::Count; l++) {
        report.put(std::string("trace.self_ms.") + layerName((Layer)l),
                   sum.selfUs[l] / 1e3, "ms");
    }
    report.put("trace.unattributed_ms", unattributedUs / 1e3, "ms");
    report.put("trace.unattributed_share",
               jobsUs > 0 ? unattributedUs / jobsUs : 0, "ratio");
    report.put("trace.nesting_errors", (double)sum.nestingErrors, "count");
    report.put("trace.spans", (double)sum.spans, "count");
    report.put("trace.overhead", report.get("wall_s") / untracedWallS,
               "ratio");
    if (sum.nestingErrors) {
        report.fail("trace: " + std::to_string(sum.nestingErrors) +
                    " spans do not nest in their parents");
    }
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    Options opt;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        try {
            if (k == "--workload") opt.workload = v;
            else if (k == "--seed") opt.seed = std::stoull(v);
            else if (k == "--seconds") opt.seconds = std::stoi(v);
            else if (k == "--trace") opt.trace = std::stoi(v) != 0;
            else if (k == "--data") opt.dataDir = v;
            else if (k == "--out") opt.outDir = v;
            else return usage();
        } catch (const std::exception&) {
            return usage();
        }
    }
    if (cmd == "calibrate") return calibrateMain();
    if (opt.dataDir.empty()) return usage();
    if (cmd == "expect") return expectMain(opt.dataDir);
    RunFn run = workloadFn(opt.workload);
    if (cmd != "run" || !run || opt.seconds < 1) return usage();

    std::vector<Program> corpus = loadCorpus(opt.dataDir);
    if (corpus.empty()) return 1;

    Report report;
    if (!opt.trace) {
        Tracer off(false);
        run(opt, corpus, off, report);
    } else {
        // Same job list twice: untraced, then traced, so the overhead
        // of tracing is the ratio of the two wall times.
        Report untraced;
        Tracer off(false);
        run(opt, corpus, off, untraced);
        Tracer on(true);
        run(opt, corpus, on, report);
        report.absorbChecks(untraced);
        putTraceMetrics(on, report, untraced.get("wall_s"));
        if (!opt.outDir.empty()) {
            std::string path = opt.outDir + "/trace-" + opt.workload + "-" +
                               std::to_string(opt.seed) + ".jsonl";
            if (!on.write(path)) {
                std::cerr << "wizbench: cannot write " << path << "\n";
            }
        }
    }
    scaleByHost(opt.workload, report);
    report.put("peak_rss_mb", peakRssMb(), "MB");

    for (const std::string& f : report.failures()) {
        std::cerr << "wizbench: FAILED " << f << "\n";
    }
    std::cout << report.table() << report.json() << std::endl;
    return 0;
}
