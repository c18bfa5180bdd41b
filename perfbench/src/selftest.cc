// Self-tests of the benchmark's own checks: each plants a fault and
// expects the run to report it, and two runs with one seed must count
// exactly the same work.
//
//   wizbench_selftest <data-dir>      (or: python3 perfbench/run.py --selftest)

#include <cmath>
#include <iostream>

#include "workloads.h"

using namespace wizbench;

namespace {

int gFailures = 0;

void
expect(bool ok, const std::string& what)
{
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) gFailures++;
}

bool
mentions(const Report& r, const std::string& text)
{
    for (const std::string& f : r.failures()) {
        if (f.find(text) != std::string::npos) return true;
    }
    return false;
}

Report
run(const std::vector<Program>& corpus, const std::string& workload,
    int seconds, uint64_t seed, Faults faults = {})
{
    Options opt;
    opt.workload = workload;
    opt.seconds = seconds;
    opt.seed = seed;
    opt.faults = faults;
    Tracer off(false);
    Report r;
    if (workload == "clean-int") runCleanInt(opt, corpus, off, r);
    if (workload == "probe-churn") runProbeChurn(opt, corpus, off, r);
    if (workload == "serve-fleet") runServeFleet(opt, corpus, off, r);
    return r;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc != 2) {
        std::cerr << "usage: wizbench_selftest <data-dir>\n";
        return 2;
    }
    std::vector<Program> corpus = loadCorpus(argv[1]);
    if (corpus.empty()) return 1;

    Faults wrong;
    wrong.wrongChecksum = true;
    Report ci = run(corpus, "clean-int", 1, 3, wrong);
    expect(ci.attempted() > 0 && ci.failed() == ci.attempted(),
           "a planted wrong checksum fails every clean-int job");
    Report pc = run(corpus, "probe-churn", 1, 3, wrong);
    expect(pc.failed() > 0 && mentions(pc, "wrong checksum"),
           "a planted wrong checksum fails probe-churn actions");

    Faults empty;
    empty.emptyDetach = true;
    Report ed = run(corpus, "probe-churn", 1, 3, empty);
    expect(ed.failed() > 0 && mentions(ed, "detached 0 of"),
           "a detach that removes nothing is caught");

    Faults stall;
    stall.generatorStallMs = 400;
    Report gs = run(corpus, "serve-fleet", 2, 3, stall);
    expect(mentions(gs, "generator fell behind"),
           "a generator that falls behind schedule is flagged");

    Tracer tr(true);
    int32_t job = tr.open("job", Layer::Job, 1, 0);
    tr.close(tr.open("child", Layer::Engine, 1, 1), 9);
    tr.close(job, 5);
    expect(summarize(tr).nestingErrors == 1,
           "a span that outlasts its parent breaks the nesting check");

    // Determinism: one seed, two runs, identical exact counts — and no
    // failed op on clean code.
    for (const char* w : {"clean-int", "probe-churn", "serve-fleet"}) {
        Report a = run(corpus, w, 2, 11), b = run(corpus, w, 2, 11);
        expect(a.failed() == 0 && b.failed() == 0,
               std::string(w) + ": no op fails on clean code");
        bool same = a.attempted() == b.attempted();
        for (const char* m :
             {"interp.instrs", "engine.fused_windows", "probes.fires",
              "probes.sites", "serve.invocations", "wasm.module_bytes"}) {
            double x = a.get(m), y = b.get(m);
            same = same && ((std::isnan(x) && std::isnan(y)) || x == y);
        }
        expect(same, std::string(w) + ": runs with one seed count the same");
    }

    std::cout << (gFailures ? "selftest FAILED\n" : "selftest passed\n");
    return gFailures ? 1 : 0;
}
