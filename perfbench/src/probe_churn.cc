// probe-churn: one client, closed loop, compiled tier (the EngineConfig
// default). Sessions of seeded tool actions on a fresh engine; each
// action is attach -> instrumented run -> detach -> clean run -> clean
// run. The work is probe insert and remove, JIT invalidation and lazy
// recompile, every lowering kind and the probe fire paths.

#include <cmath>
#include <functional>
#include <unordered_map>

#include "monitors/entryexit.h"
#include "workloads.h"

namespace wizbench {

using namespace wizpp;

namespace {

enum class Kind : uint8_t { Breakpoints, Hotness, Branches, Calls, Global };
constexpr int kKinds = 5;
const char* const kKindNames[kKinds] = {"breakpoints", "hotness", "branches",
                                        "calls", "global"};
constexpr uint32_t kBreakpoints = 16;

/**
 * Sessions run one of two fixed multisets of actions, in seeded order,
 * and every pass gives each program one session of each, so every run
 * has the same mix and builds two engines per program. Breakpoints are
 * six of the ten actions, so an all-action p50 lies inside their mass
 * and not in the gap between them and the heavier kinds.
 */
const Kind kSessionActions[2][5] = {
    {Kind::Breakpoints, Kind::Breakpoints, Kind::Breakpoints, Kind::Hotness,
     Kind::Branches},
    {Kind::Breakpoints, Kind::Breakpoints, Kind::Breakpoints, Kind::Calls,
     Kind::Global},
};

uint64_t
siteKey(uint32_t f, uint32_t pc)
{
    return (uint64_t)f << 32 | pc;
}

/**
 * Per-site execution counts of one run at nJit: the reference the
 * breakpoint fire counts are checked against. Their sum must match
 * expected.txt's instruction count.
 */
bool
siteCounts(const std::shared_ptr<const ValidatedModule>& vm, const Program& p,
           std::unordered_map<uint64_t, uint64_t>* out)
{
    Engine eng;
    if (!eng.loadShared(vm).ok() || !eng.instantiate().ok()) return false;
    std::vector<ProbeManager::SiteProbe> batch;
    for (auto [f, pc] : allSites(eng)) {
        batch.push_back({f, pc, std::make_shared<CountProbe>()});
    }
    auto kept = batch;
    eng.probes().insertBatch(batch);
    if (resultBits(eng.callExport("run", {Value::makeI32(p.nJit)})) !=
        p.expected.at(p.nJit).checksumBits) {
        return false;
    }
    uint64_t total = 0;
    for (const auto& sp : kept) {
        uint64_t c = static_cast<CountProbe*>(sp.probe.get())->count;
        (*out)[siteKey(sp.funcIndex, sp.pc)] = c;
        total += c;
    }
    return total == p.expected.at(p.nJit).instrs;
}

struct Samples
{
    std::vector<double> jobMs, attachUs, detachUs, residual;
    std::vector<double> kindAttachUs[kKinds], kindDetachUs[kKinds];
    std::vector<double> cleanMs, probedMs, firstAfterMs, ctorUs, loadUs,
        instUs, refMs;
    double cleanUsTotal = 0, probedMinusCleanUs = 0;
    uint64_t cleanInstrs = 0, sites = 0, fires = 0;
    uint64_t compiledFires = 0;  ///< fires of the compiled-tier kinds
};

} // namespace

void
runProbeChurn(const Options& opt, const std::vector<Program>& corpus,
              Tracer& tracer, Report& report)
{
    Setups setups;
    std::vector<std::shared_ptr<const ValidatedModule>> vms;
    for (int rep = 0; rep < kSetupRepsBefore; rep++) {
        vms.clear();
        vms = setups.run(corpus, tracer, report);
        if (vms.empty()) return;
    }

    // The session plan: the same seed gives the same programs, action
    // kinds and breakpoint sites.
    Rng rng(opt.seed);
    const uint32_t passes = passesFor(kProbeChurnSessionsPerSecond,
                                      opt.seconds, 2 * corpus.size());
    struct Session
    {
        uint32_t prog;
        std::vector<Kind> kinds;
    };
    std::vector<Session> plan;
    std::vector<uint32_t> pass(2 * corpus.size());
    for (uint32_t i = 0; i < pass.size(); i++) pass[i] = i;
    for (uint32_t k = 0; k < passes; k++) {
        rng.shuffle(pass);
        for (uint32_t i : pass) {
            const Kind* acts = kSessionActions[i % 2];
            Session s{i / 2, {acts, acts + 5}};
            rng.shuffle(s.kinds);
            plan.push_back(std::move(s));
        }
    }

    // Untimed reference pass: per-site counts for every program that
    // gets a breakpoints action.
    std::unordered_map<uint32_t, std::unordered_map<uint64_t, uint64_t>> counts;
    for (const Session& s : plan) {
        if (counts.count(s.prog)) continue;
        if (!siteCounts(vms[s.prog], corpus[s.prog], &counts[s.prog])) {
            report.fail("probe-churn: site counts of " + corpus[s.prog].name +
                        " differ from expected.txt");
        }
    }

    Samples smp;
    // The one sample taken while no engine is alive; reserved up front
    // for the reason given in Setups::run.
    smp.refMs.reserve(plan.size());
    EngineCounters counters;
    uint64_t job = 0;
    // The timed phase. Reference-kernel samples and the spread-out
    // set-ups run between sessions and are left out of wall_s.
    double excludedUs = 0;
    const double t0 = nowUs();
    for (size_t si = 0; si < plan.size(); si++) {
        const Session& s = plan[si];
        const double gap = nowUs();
        smp.refMs.push_back(timeReferenceKernel());
        // The modules of a spread-out set-up are dropped at once.
        if (setupDue(si, plan.size()) &&
            setups.run(corpus, tracer, report).empty()) {
            return;
        }
        excludedUs += nowUs() - gap;
        const Program& p = corpus[s.prog];
        const Expected& want = p.expected.at(p.nJit);
        const std::vector<Value> args{Value::makeI32(p.nJit)};
        const uint64_t expectBits =
            want.checksumBits ^ (opt.faults.wrongChecksum ? 1 : 0);

        // Session start: fresh engine, warm call, one clean run that
        // is the first action's before-attach reference.
        std::unique_ptr<Engine> eng;
        double beforeMs = 0;
        {
            report.attempt();
            Timed j(tracer, "session", Layer::Job, ++job);
            Timed ct(tracer, "engine.ctor", Layer::Engine, job);
            eng = std::make_unique<Engine>();
            smp.ctorUs.push_back(ct.stop());
            Timed lt(tracer, "engine.load", Layer::Engine, job);
            bool ok = eng->loadShared(vms[s.prog]).ok();
            smp.loadUs.push_back(lt.stop());
            Timed it(tracer, "engine.instantiate", Layer::Engine, job);
            ok = ok && eng->instantiate().ok();
            smp.instUs.push_back(it.stop());
            Timed wt(tracer, "jit.warm_call", Layer::Jit, job);
            ok = ok && resultBits(eng->callExport("run", args)) == expectBits;
            wt.stop();
            Timed bt(tracer, "jit.call", Layer::Jit, job);
            ok = ok && resultBits(eng->callExport("run", args)) == expectBits;
            beforeMs = bt.stop() / 1e3;
            smp.jobMs.push_back(beforeMs);
            j.stop();
            if (!ok) {
                report.fail("probe-churn: session start of " + p.name +
                            " trapped or returned a wrong checksum");
                counters.add(*eng);
                continue;
            }
        }
        const auto sites = allSites(*eng);

        for (Kind kind : s.kinds) {
            report.attempt();
            const int k = (int)kind;
            Timed j(tracer, kKindNames[k], Layer::Job, ++job);
            bool ok = true;
            uint64_t expectFires = 0, attached = 0;
            std::string why;

            // Attach. Each kind keeps what it needs to read fire
            // counts and to detach exactly what it attached.
            std::vector<ProbeManager::SiteProbe> batch, kept;
            std::vector<std::shared_ptr<CountProbe>> bps;
            std::vector<std::pair<uint32_t, uint32_t>> bpSites;
            std::unique_ptr<FunctionEntryExit> calls;
            uint64_t entries = 0, exits = 0;
            std::shared_ptr<CountProbe> global;
            if (kind == Kind::Breakpoints) {
                // Distinct seeded sites (the plan's rng keeps runs with
                // one seed identical).
                std::unordered_map<uint64_t, bool> used;
                while (bpSites.size() < kBreakpoints &&
                       bpSites.size() < sites.size()) {
                    auto site = sites[rng.below((uint32_t)sites.size())];
                    if (used[siteKey(site.first, site.second)]) continue;
                    used[siteKey(site.first, site.second)] = true;
                    bpSites.push_back(site);
                    expectFires += counts[s.prog][siteKey(site.first,
                                                          site.second)];
                }
                for (size_t i = 0; i < bpSites.size(); i++) {
                    bps.push_back(std::make_shared<CountProbe>());
                }
            } else if (kind == Kind::Hotness) {
                for (auto [f, pc] : sites) {
                    batch.push_back({f, pc, std::make_shared<CountProbe>()});
                }
                expectFires = want.instrs;
            } else if (kind == Kind::Branches) {
                for (auto [f, pc] : sites) {
                    if (isBranchOpcode(eng->funcState(f).decl->code[pc])) {
                        batch.push_back(
                            {f, pc, std::make_shared<BranchCounter>()});
                    }
                }
                expectFires = want.branchFires;
            } else if (kind == Kind::Calls) {
                expectFires = 2 * want.calls;
            } else {
                global = std::make_shared<CountProbe>();
                expectFires = want.instrs;
            }
            kept = batch;  // insertBatch consumes the span's pointers

            Timed at(tracer, "probes.attach", Layer::Probes, job);
            switch (kind) {
              case Kind::Breakpoints:
                for (size_t i = 0; i < bps.size(); i++) {
                    attached += eng->probes().insertLocal(
                        bpSites[i].first, bpSites[i].second, bps[i]);
                }
                break;
              case Kind::Hotness:
              case Kind::Branches:
                attached = eng->probes().insertBatch(batch);
                break;
              case Kind::Calls:
                calls = std::make_unique<FunctionEntryExit>(
                    *eng, [&](uint32_t, uint64_t) { entries++; },
                    [&](uint32_t, uint64_t) { exits++; });
                calls->instrumentAll();
                attached = eng->probes().numProbedSites();
                break;
              case Kind::Global:
                eng->probes().insertGlobal(global);
                attached = 1;
                break;
            }
            double aus = at.stop();
            const size_t planned = kind == Kind::Breakpoints ? bps.size()
                                   : kind == Kind::Calls     ? attached
                                   : kind == Kind::Global    ? 1
                                                             : kept.size();
            if (attached != planned) {
                ok = false;
                why = "attached " + std::to_string(attached) + " of " +
                      std::to_string(planned);
            }

            // Instrumented run: global probes pin the interpreter.
            Layer runLayer = kind == Kind::Global ? Layer::Interp : Layer::Jit;
            Timed pt(tracer, "call.probed", runLayer, job);
            uint64_t bits = resultBits(eng->callExport("run", args));
            double probedMs = pt.stop() / 1e3;
            uint64_t fires = 0;
            switch (kind) {
              case Kind::Breakpoints:
                for (const auto& c : bps) fires += c->count;
                break;
              case Kind::Hotness:
                for (const auto& sp : kept) {
                    fires += static_cast<CountProbe*>(sp.probe.get())->count;
                }
                break;
              case Kind::Branches:
                for (const auto& sp : kept) {
                    fires += static_cast<BranchCounter*>(sp.probe.get())->count;
                }
                break;
              case Kind::Calls:
                fires = entries + exits;
                if (entries != exits) fires = ~0ull;
                break;
              case Kind::Global:
                fires = global->count;
                break;
            }
            if (bits != expectBits) {
                ok = false;
                why = "instrumented run: wrong checksum or trap";
            } else if (fires != expectFires) {
                ok = false;
                why = std::to_string(fires) + " fires, expected " +
                      std::to_string(expectFires);
            }

            // Detach.
            size_t detached = 0;
            Timed dt(tracer, "probes.detach", Layer::Probes, job);
            switch (kind) {
              case Kind::Breakpoints:
                for (size_t i = 0; i < bps.size(); i++) {
                    detached += eng->probes().removeLocal(
                        bpSites[i].first, bpSites[i].second, bps[i].get());
                }
                break;
              case Kind::Hotness:
              case Kind::Branches:
                if (opt.faults.emptyDetach) kept.clear();
                detached = eng->probes().removeBatch(kept);
                break;
              case Kind::Calls:
                calls.reset();
                detached = attached - eng->probes().numProbedSites();
                break;
              case Kind::Global:
                detached = eng->probes().removeGlobal(global.get());
                break;
            }
            double dus = dt.stop();
            if (detached != attached || eng->probes().numProbedSites() != 0 ||
                eng->probes().hasGlobalProbes()) {
                ok = false;
                why = "detached " + std::to_string(detached) + " of " +
                      std::to_string(attached);
            }

            Timed c1(tracer, "jit.first_call_after_change", Layer::Jit, job);
            bool clean = resultBits(eng->callExport("run", args)) == expectBits;
            double firstMs = c1.stop() / 1e3;
            Timed c2(tracer, "jit.call", Layer::Jit, job);
            clean = resultBits(eng->callExport("run", args)) == expectBits &&
                    clean;
            double cleanMs = c2.stop() / 1e3;
            if (!clean) {
                ok = false;
                why = "clean run after detach: wrong checksum or trap";
            }
            j.stop();

            if (!ok) {
                report.fail("probe-churn " + std::string(kKindNames[k]) +
                            " on " + p.name + ": " + why);
            }
            smp.attachUs.push_back(aus);
            smp.detachUs.push_back(dus);
            smp.kindAttachUs[k].push_back(aus);
            smp.kindDetachUs[k].push_back(dus);
            smp.jobMs.push_back(probedMs);
            smp.jobMs.push_back(firstMs);
            smp.jobMs.push_back(cleanMs);
            smp.firstAfterMs.push_back(firstMs);
            smp.cleanMs.push_back(cleanMs);
            smp.cleanUsTotal += cleanMs * 1e3;
            smp.cleanInstrs += want.instrs;
            smp.residual.push_back(cleanMs / beforeMs);
            // A global probe pins the interpreter, so its probed run
            // differs from the clean compiled run by the tier, not by
            // fire cost: exec_probed_ms and fire_ns leave it out.
            if (kind != Kind::Global) {
                smp.probedMs.push_back(probedMs);
                smp.probedMinusCleanUs += (probedMs - beforeMs) * 1e3;
                smp.compiledFires += fires;
            }
            smp.sites += kind == Kind::Global ? 0 : attached;
            smp.fires += fires;
            beforeMs = cleanMs;
        }
        counters.add(*eng);
    }
    const double wallS = (nowUs() - t0 - excludedUs) / 1e6;
    uint64_t moduleBytes = 0;
    for (const Program& p : corpus) moduleBytes += p.bytes.size();
    putSetupMetrics(report, setups, moduleBytes);

    report.put("wall_s", wallS, "s");
    putQuantiles(report, "job_ms", smp.jobMs, "ms", {50, 90, 99});
    report.put("host.ref_ms", median(smp.refMs), "ms");
    putQuantiles(report, "engine.ctor_us", smp.ctorUs, "us", {50, 90});
    report.put("engine.load_us", median(smp.loadUs), "us");
    report.put("engine.instantiate_us", median(smp.instUs), "us");
    counters.put(report);
    report.put("jit.exec_clean_ms", median(smp.cleanMs), "ms");
    report.put("jit.exec_probed_ms", median(smp.probedMs), "ms");
    report.put("jit.first_call_after_change_ms", median(smp.firstAfterMs),
               "ms");
    report.put("jit.ns_per_instr",
               smp.cleanUsTotal * 1e3 / (double)smp.cleanInstrs, "ns");
    putQuantiles(report, "probes.attach_us", smp.attachUs, "us", {50, 90});
    putQuantiles(report, "probes.detach_us", smp.detachUs, "us", {50, 90});
    for (int k = 0; k < kKinds; k++) {
        std::string base = std::string("probes.") + kKindNames[k];
        report.put(base + ".attach_us", median(smp.kindAttachUs[k]), "us");
        report.put(base + ".detach_us", median(smp.kindDetachUs[k]), "us");
    }
    report.put("probes.residual_ratio", median(smp.residual), "ratio");
    report.put("probes.sites", (double)smp.sites, "count");
    report.put("probes.fires", (double)smp.fires, "count");
    report.put("probes.fire_ns",
               smp.compiledFires
                   ? smp.probedMinusCleanUs * 1e3 / (double)smp.compiledFires
                   : 0,
               "ns");
}

} // namespace wizbench
