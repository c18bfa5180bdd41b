// serve-fleet: an open loop. A generator thread submits richards
// requests (n drawn from {1, 2, 4}) to an InstancePool of 2 compiled-
// tier workers at seeded, exponentially spaced arrival times of one
// fixed rate; the main thread is the fleet writer and about once a
// second alternately attaches and detaches CountProbes fleet-wide
// (function entries, then every instruction). Latency runs from each
// request's due time, so a stall in the pool shows as queueing.

#include <cmath>
#include <thread>

#include "serve/pool.h"
#include "workloads.h"

namespace wizbench {

using namespace wizpp;

namespace {

/**
 * Request sizes come in shuffled groups of this mix. Every-instruction
 * probes, attached a quarter of the time, make a request about 1.4x
 * slower, so each size has a clean mass and a smaller probed one above
 * it; this mix puts p50 and p90 each near the middle of a clean mass
 * (n = 2 and n = 4), away from the gaps (README.md, "Arrival rate").
 */
constexpr uint32_t kSizes[6] = {1, 1, 2, 2, 2, 4};
/** A request submitted this late counts as the generator falling
    behind; more than 1% of them fails the run. */
constexpr double kLateLimitUs = 10e3;

enum class Plan : uint8_t { None, Entry, Every };

/** Per-worker state: written only by its worker thread, read by the
    main thread after the pool has stopped. */
struct alignas(64) WorkerState
{
    std::vector<double> latUs, queueUs, serviceUs, cleanServiceUs;
    uint64_t cleanInstrs = 0;
    std::vector<std::shared_ptr<CountProbe>> live;  ///< latest attach
    uint64_t frozenFires = 0;  ///< fires of earlier, detached batches
    uint64_t seenFires = 0;
    Plan plan = Plan::None;
    std::vector<size_t> planned;  ///< probes built per attach, in order
    uint64_t invocations = 0, instrumented = 0;
    std::vector<std::string> failures;

    uint64_t
    totalFires() const
    {
        uint64_t n = frozenFires;
        for (const auto& c : live) n += c->count;
        return n;
    }
};

std::vector<ProbeManager::SiteProbe>
buildPlan(Engine& eng, WorkerState& ws, Plan plan)
{
    ws.frozenFires = ws.totalFires();
    ws.live.clear();
    ws.plan = plan;
    std::vector<ProbeManager::SiteProbe> out;
    uint32_t lastFunc = UINT32_MAX;
    for (auto [f, pc] : allSites(eng)) {
        // A function's first site is its entry.
        if (plan == Plan::Entry && f == lastFunc) continue;
        lastFunc = f;
        auto c = std::make_shared<CountProbe>();
        ws.live.push_back(c);
        out.push_back({f, pc, c});
    }
    ws.planned.push_back(out.size());
    return out;
}

} // namespace

void
runServeFleet(const Options& opt, const std::vector<Program>& corpus,
              Tracer& tracer, Report& report)
{
    const Program* richards = findProgram(corpus, "richards");
    for (uint32_t n : kSizes) {
        if (!richards || !richards->expected.count(n)) {
            report.fail("serve-fleet: expected.txt lacks richards at n=" +
                        std::to_string(n));
            return;
        }
    }
    std::vector<WorkerState> states(kServeWorkers);
    const uint64_t bitsFlip = opt.faults.wrongChecksum ? 1 : 0;

    // One set-up: decode, validate, start a pool, one warm-up call per
    // worker. Its span covers the module and the pool, so setups.run
    // is not used.
    Setups setups;
    std::vector<double> startMs;
    int32_t func = -1;
    auto setUp = [&]() -> std::unique_ptr<serve::InstancePool> {
        Timed t(tracer, "setup", Layer::Job, 0);
        auto vms = decodeAndValidate({*richards}, tracer, report,
                                     &setups.decodeUs, &setups.validateUs);
        if (vms.empty()) return nullptr;
        Timed st(tracer, "serve.start", Layer::Serve, 0);
        auto p = std::make_unique<serve::InstancePool>(
            vms[0], EngineConfig{}, serve::PoolOptions{kServeWorkers});
        auto started = p->start();
        startMs.push_back(st.stop() / 1e3);
        func = p->findFunc("run");
        if (!started.ok() || func < 0) {
            report.fail("serve-fleet: pool start failed");
            return nullptr;
        }
        std::atomic<uint64_t> bad{0};
        const uint64_t want = richards->expected.at(1).checksumBits ^ bitsFlip;
        Timed wt(tracer, "serve.warmup", Layer::Serve, 0);
        for (uint32_t w = 0; w < kServeWorkers; w++) {
            report.attempt();
            p->submit((uint32_t)func, {Value::makeI32(1)},
                      [&](uint32_t, const Result<std::vector<Value>>& r) {
                          if (resultBits(r) != want) bad++;
                      });
        }
        p->drain();
        wt.stop();
        for (uint64_t i = 0; i < bad.load(); i++) {
            report.fail("serve-fleet: warm-up call returned a wrong checksum");
        }
        return p;
    };
    // One sample: kServeSetupPasses set-ups, each pool stopped (outside
    // the timing) before the next starts. @p pool keeps the last one.
    auto sample = [&](std::unique_ptr<serve::InstancePool>& pool) {
        double us = 0;
        for (int pass = 0; pass < kServeSetupPasses; pass++) {
            pool.reset();
            const double t0 = nowUs();
            pool = setUp();
            us += nowUs() - t0;
            if (!pool) return false;
        }
        setups.seconds.push_back(us / 1e6 / kServeSetupPasses);
        return true;
    };
    // Pools cannot be built while the pool serves without both competing
    // for the cores, so half the samples run before the timed phase and
    // half after it. The last pool built before it serves it.
    constexpr int kBefore = kSetupReps / 2 + 1;
    std::unique_ptr<serve::InstancePool> pool;
    for (int rep = 0; rep < kBefore; rep++) {
        if (!sample(pool)) return;
    }

    // The arrival schedule: seeded exponential gaps at the committed
    // rate, never recalibrated, so every run offers the same load.
    Rng rng(opt.seed);
    const size_t requests =
        (size_t)std::llround(kServeRequestsPerSecond * opt.seconds);
    std::vector<double> dueUs(requests);
    std::vector<uint32_t> sizes(requests);
    double t = 0;
    std::vector<uint32_t> group(std::begin(kSizes), std::end(kSizes));
    for (size_t i = 0; i < requests; i++) {
        t += -std::log(1.0 - rng.uniform()) * 1e6 / kServeRequestsPerSecond;
        dueUs[i] = t;
        // Sizes come in shuffled groups: every run has the same mix.
        if (i % group.size() == 0) rng.shuffle(group);
        sizes[i] = group[i % group.size()];
    }
    const double spanUs = t;
    const int ops = std::max(2, opt.seconds / 2 * 2);

    std::vector<double> doneUs(requests, 0), lateUs(requests, 0);
    auto serveOne = [&](uint32_t w, size_t i, double due) {
        const double start = nowUs();
        WorkerState& ws = states[w];
        Engine& eng = pool->workerEngine(w);
        const uint32_t n = sizes[i];
        const Expected& want = richards->expected.at(n);
        int32_t jobSpan = tracer.open("request", Layer::Job, i + 1, due);
        tracer.close(tracer.open("serve.queue", Layer::Serve, i + 1, due),
                     start);
        const bool instrumented = eng.probes().numProbedSites() > 0;
        Timed ct(tracer, "jit.call", Layer::Jit, i + 1, start);
        auto r = eng.callFunction((uint32_t)func, {Value::makeI32(n)});
        const double serviceUs = ct.stop();
        const uint64_t fires = ws.totalFires();
        const uint64_t expectFires =
            !instrumented ? 0
            : ws.plan == Plan::Entry ? want.calls
                                     : want.instrs;
        if (resultBits(r) != (want.checksumBits ^ bitsFlip)) {
            ws.failures.push_back("request " + std::to_string(i) +
                                  ": wrong checksum or trap");
        } else if (fires - ws.seenFires != expectFires) {
            ws.failures.push_back("request " + std::to_string(i) + ": " +
                                  std::to_string(fires - ws.seenFires) +
                                  " fires, expected " +
                                  std::to_string(expectFires));
        }
        ws.seenFires = fires;
        ws.invocations++;
        ws.instrumented += instrumented;
        const double end = nowUs();
        if (jobSpan >= 0) tracer.close(jobSpan, end);
        ws.latUs.push_back(end - due);
        ws.queueUs.push_back(start - due);
        ws.serviceUs.push_back(serviceUs);
        if (!instrumented) {
            ws.cleanServiceUs.push_back(serviceUs);
            ws.cleanInstrs += want.instrs;
        }
        doneUs[i] = end;
    };

    const Clock::time_point t0tp = Clock::now();
    const double t0 = nowUs();
    auto at = [&](double relUs) {
        return t0tp + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::micro>(relUs));
    };
    std::jthread generator([&] {
        for (size_t i = 0; i < requests; i++) {
            std::this_thread::sleep_until(at(dueUs[i]));
            if (opt.faults.generatorStallMs > 0 && i == requests / 4) {
                std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
                    opt.faults.generatorStallMs));
            }
            const double due = t0 + dueUs[i];
            lateUs[i] = nowUs() - due;
            pool->executor().submit(
                [&serveOne, i, due](uint32_t w) { serveOne(w, i, due); });
        }
    });

    // The main thread is the fleet writer; between ops it times the
    // host reference kernel on its otherwise idle core.
    std::vector<double> opMs, refMs;
    uint64_t batch = 0;
    for (int k = 0; k < ops; k++) {
        const double opAt = (k + 0.5) * spanUs / ops;
        while (nowUs() - t0 + 100e3 < opAt) {
            refMs.push_back(timeReferenceKernel());
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        std::this_thread::sleep_until(at(opAt));
        report.attempt();
        Timed j(tracer, "fleet_op", Layer::Job, requests + k + 1);
        Timed ot(tracer, k % 2 ? "serve.detach_batch" : "serve.attach_each",
                 Layer::Serve, requests + k + 1);
        if (k % 2 == 0) {
            const Plan plan = k % 4 == 0 ? Plan::Entry : Plan::Every;
            batch = pool->attachEach([&states, plan](Engine& eng, uint32_t w) {
                return buildPlan(eng, states[w], plan);
            });
        } else {
            pool->detachBatch(batch);
        }
        opMs.push_back(ot.stop() / 1e3);
    }
    generator.join();
    pool->drain();
    double lastDone = 0;
    for (double d : doneUs) lastDone = std::max(lastDone, d);
    const double wallS = (lastDone - (t0 + dueUs[0])) / 1e6;
    pool->stop();

    // Checks that need a quiet fleet: every attach built and attached
    // the same probes, and every detach removed all of them.
    std::vector<double> latUs, queueUs, serviceUs, cleanUs;
    uint64_t invocations = 0, instrumented = 0, cleanInstrs = 0,
             pauseMax = 0;
    for (uint32_t w = 0; w < kServeWorkers; w++) {
        WorkerState& ws = states[w];
        for (const std::string& f : ws.failures) report.fail("serve-fleet " + f);
        for (size_t a = 0; a < ws.planned.size(); a++) {
            // Batch ids count from 1 per pool; set-up pools made none.
            size_t got = pool->attachedProbes(a + 1, w).size();
            if (got != ws.planned[a]) {
                report.fail("serve-fleet: worker " + std::to_string(w) +
                            " attached " + std::to_string(got) + " of " +
                            std::to_string(ws.planned[a]) + " probes");
            }
        }
        if (pool->workerEngine(w).probes().numProbedSites() != 0) {
            report.fail("serve-fleet: worker " + std::to_string(w) +
                        " kept probes after the last detach");
        }
        latUs.insert(latUs.end(), ws.latUs.begin(), ws.latUs.end());
        queueUs.insert(queueUs.end(), ws.queueUs.begin(), ws.queueUs.end());
        serviceUs.insert(serviceUs.end(), ws.serviceUs.begin(),
                         ws.serviceUs.end());
        cleanUs.insert(cleanUs.end(), ws.cleanServiceUs.begin(),
                       ws.cleanServiceUs.end());
        cleanInstrs += ws.cleanInstrs;
        invocations += ws.invocations;
        instrumented += ws.instrumented;
        pauseMax = std::max(pauseMax,
                            pool->workerStats(w).applyPauseMaxUs.load());
    }
    for (size_t i = 0; i < requests; i++) report.attempt();
    if (invocations != requests) {
        report.fail("serve-fleet: " + std::to_string(invocations) + " of " +
                    std::to_string(requests) + " requests completed");
    }
    size_t late = 0;
    for (double l : lateUs) late += l > kLateLimitUs;
    if (late * 100 > requests) {
        report.fail("serve-fleet: the generator fell behind schedule (" +
                    std::to_string(late) + " requests over 10 ms late)");
    }

    auto ms = [](std::vector<double> v) {
        for (double& x : v) x /= 1e3;
        return v;
    };
    double cleanTotalUs = 0;
    for (double x : cleanUs) cleanTotalUs += x;
    report.put("wall_s", wallS, "s");
    putQuantiles(report, "job_ms", ms(latUs), "ms", {50, 90, 99});
    report.put("host.ref_ms", median(refMs), "ms");
    putQuantiles(report, "serve.queue_ms", ms(queueUs), "ms", {50, 99});
    putQuantiles(report, "serve.service_ms", ms(serviceUs), "ms", {50, 99});
    putQuantiles(report, "serve.fleet_op_ms", opMs, "ms", {50, 90});
    report.put("serve.apply_pause_us_max", (double)pauseMax, "us");
    report.put("serve.steals", (double)pool->executor().steals(), "count");
    // The other set-up samples.
    pool.reset();
    for (int rep = kBefore; rep < kSetupReps; rep++) {
        if (!sample(pool)) return;
    }
    pool.reset();
    putSetupMetrics(report, setups, richards->bytes.size());
    report.put("serve.start_ms", median(startMs), "ms");
    report.put("serve.invocations", (double)invocations, "count");
    report.put("serve.instrumented_invocations", (double)instrumented,
               "count");
    report.put("serve.gen_late_ms_p99", quantile(ms(lateUs), 0.99), "ms");
    report.put("jit.exec_clean_ms", median(ms(cleanUs)), "ms");
    report.put("jit.ns_per_instr",
               cleanInstrs ? cleanTotalUs * 1e3 / (double)cleanInstrs : 0, "ns");
}

} // namespace wizbench
