// clean-int: one client, closed loop. Each job is a one-shot run of
// one corpus program in the interpreter tier (default dispatch and
// fusion): construct an Engine, load, instantiate, call run(n_p),
// check the checksum, destroy. Probes, the compiled tier and serving
// do no work here, so an optimisation of those layers must leave this
// workload flat.

#include <cmath>

#include "monitors/monitors.h"
#include "workloads.h"

namespace wizbench {

using namespace wizpp;

void
runCleanInt(const Options& opt, const std::vector<Program>& corpus,
            Tracer& tracer, Report& report)
{
    Setups setups;
    std::vector<std::shared_ptr<const ValidatedModule>> vms;
    for (int rep = 0; rep < kSetupRepsBefore; rep++) {
        vms.clear();
        vms = setups.run(corpus, tracer, report);
        if (vms.empty()) return;
    }

    // The job list: shuffled passes over the corpus, so every run
    // with one seed runs the same jobs in the same order and the job
    // mix is the same in every run.
    Rng rng(opt.seed);
    const uint32_t passes =
        passesFor(kCleanIntJobsPerSecond, opt.seconds, corpus.size());
    std::vector<uint32_t> order;
    std::vector<uint32_t> pass(corpus.size());
    for (uint32_t i = 0; i < pass.size(); i++) pass[i] = i;
    for (uint32_t k = 0; k < passes; k++) {
        rng.shuffle(pass);
        order.insert(order.end(), pass.begin(), pass.end());
    }
    const size_t jobs = order.size();

    uint64_t moduleBytes = 0;
    for (const Program& p : corpus) moduleBytes += p.bytes.size();
    EngineConfig cfg;
    cfg.mode = ExecMode::Interpreter;
    std::vector<double> jobMs, ctorUs, loadUs, instUs, execMs, dtorUs, refMs;
    // Reserved up front: allocations made between two jobs can land in
    // the freed value stack of the last engine, and the next engine
    // then grows the heap (see Setups::run).
    for (auto* v :
         {&jobMs, &ctorUs, &loadUs, &instUs, &execMs, &dtorUs, &refMs}) {
        v->reserve(jobs);
    }
    EngineCounters counters;
    double execUsTotal = 0;
    // The timed phase. Reference-kernel samples and the spread-out
    // set-ups run between jobs and are left out of wall_s.
    double excludedUs = 0;
    const double t0 = nowUs();
    for (size_t j = 0; j < jobs; j++) {
        const double gap = nowUs();
        if (j % 4 == 0) refMs.push_back(timeReferenceKernel());
        // The modules of a spread-out set-up are dropped at once.
        if (setupDue(j, jobs) && setups.run(corpus, tracer, report).empty()) {
            return;
        }
        excludedUs += nowUs() - gap;
        const Program& p = corpus[order[j]];
        const Expected& want = p.expected.at(p.n);
        report.attempt();
        Timed job(tracer, "job", Layer::Job, j + 1);

        Timed ct(tracer, "engine.ctor", Layer::Engine, j + 1);
        auto eng = std::make_unique<Engine>(cfg);
        ctorUs.push_back(ct.stop());
        Timed lt(tracer, "engine.load", Layer::Engine, j + 1);
        auto lr = eng->loadShared(vms[order[j]]);
        loadUs.push_back(lt.stop());
        Timed it(tracer, "engine.instantiate", Layer::Engine, j + 1);
        auto ir = eng->instantiate();
        instUs.push_back(it.stop());
        Timed xt(tracer, "interp.call", Layer::Interp, j + 1);
        auto r = eng->callExport("run", {Value::makeI32(p.n)});
        double xus = xt.stop();
        execMs.push_back(xus / 1e3);
        execUsTotal += xus;

        uint64_t expect = want.checksumBits ^ (opt.faults.wrongChecksum ? 1 : 0);
        if (!lr.ok() || !ir.ok() || resultBits(r) != expect) {
            report.fail("clean-int job " + std::to_string(j) + " (" + p.name +
                        "): wrong checksum or trap");
        }
        counters.add(*eng);
        Timed dt(tracer, "engine.dtor", Layer::Engine, j + 1);
        eng.reset();
        dtorUs.push_back(dt.stop());
        jobMs.push_back(job.stop() / 1e3);
    }
    const double wallS = (nowUs() - t0 - excludedUs) / 1e6;

    // interp.instrs is counted by an untimed HotnessMonitor pass over
    // each program (about as long as a hundred jobs), summed over the
    // job list, and each program's count is checked against the table.
    std::vector<uint64_t> counted(corpus.size());
    for (uint32_t i = 0; i < corpus.size(); i++) {
        const Program& p = corpus[i];
        Engine eng(cfg);
        HotnessMonitor hot;
        bool ok = eng.loadShared(vms[i]).ok();
        eng.attachMonitor(&hot);
        ok = ok && eng.instantiate().ok() &&
             eng.callExport("run", {Value::makeI32(p.n)}).ok();
        counted[i] = hot.totalCount();
        if (!ok || counted[i] != p.expected.at(p.n).instrs) {
            report.fail("clean-int: instruction count of " + p.name +
                        " differs from expected.txt");
        }
    }
    uint64_t instrs = 0;
    for (uint32_t i : order) instrs += counted[i];
    putSetupMetrics(report, setups, moduleBytes);

    report.put("wall_s", wallS, "s");
    putQuantiles(report, "job_ms", jobMs, "ms", {50, 90, 99});
    report.put("host.ref_ms", median(refMs), "ms");
    putQuantiles(report, "engine.ctor_us", ctorUs, "us", {50, 90});
    report.put("engine.load_us", median(loadUs), "us");
    report.put("engine.instantiate_us", median(instUs), "us");
    report.put("engine.dtor_us", median(dtorUs), "us");
    counters.put(report);
    report.put("interp.exec_ms", median(execMs), "ms");
    report.put("interp.instrs", (double)instrs, "count");
    report.put("interp.ns_per_instr", execUsTotal * 1e3 / (double)instrs,
               "ns");
}

} // namespace wizbench
