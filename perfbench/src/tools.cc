// The two table generators behind the committed data files.
//
// `calibrate` writes np_table.txt: at each program's default n,
// interpreter jobs range from 0.2 to 68 ms, so a job-time percentile
// falls into the gaps between programs and jumps from run to run. n_p
// brings every program's interpreter execution to about kTargetMs, and
// n_jit its compiled-tier execution to about kJitTargetMs (per program
// the compiled tier runs 0.7x to 2.8x as long as the interpreter).
//
// `expect` writes expected.txt: each program's checksum and exact
// execution counts at n_p (and richards at the serve-fleet sizes),
// from a reference configuration (interpreter, table dispatch, fusion
// off) and cross-checked against the compiled tier.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "workloads.h"

namespace wizbench {

using namespace wizpp;

namespace {

constexpr double kTargetMs = 4.0;
constexpr double kJitTargetMs = 6.0;

std::shared_ptr<const ValidatedModule>
validated(const Program& p)
{
    Tracer off(false);
    Report r;
    std::vector<double> d, v;
    auto vms = decodeAndValidate({p}, off, r, &d, &v);
    return vms.empty() ? nullptr : vms[0];
}

/**
 * Best-of-3 time of run(n) in ms, the way the workloads call it: the
 * interpreter on a fresh engine (clean-int), the compiled tier on a
 * warm one (probe-churn). Negative on a trap.
 */
double
runMs(const std::shared_ptr<const ValidatedModule>& vm, ExecMode mode,
      uint32_t n)
{
    EngineConfig cfg;
    cfg.mode = mode;
    Engine warm(cfg);
    if (!warm.loadShared(vm).ok() || !warm.instantiate().ok()) return -1;
    double best = 1e300;
    for (int rep = 0; rep < 4; rep++) {
        std::unique_ptr<Engine> fresh;
        Engine* eng = &warm;
        if (mode == ExecMode::Interpreter) {
            fresh = std::make_unique<Engine>(cfg);
            if (!fresh->loadShared(vm).ok() || !fresh->instantiate().ok()) {
                return -1;
            }
            eng = fresh.get();
        }
        double t0 = nowUs();
        if (!eng->callExport("run", {Value::makeI32(n)}).ok()) return -1;
        // The compiled tier's first call is its warm-up, not a sample.
        if (rep > 0 || mode == ExecMode::Interpreter) {
            best = std::min(best, (nowUs() - t0) / 1e3);
        }
    }
    return best;
}

/** The n, starting from @p n, at which run(n) takes about @p targetMs;
    0 on a trap. */
uint32_t
fitSize(const std::shared_ptr<const ValidatedModule>& vm, ExecMode mode,
        uint32_t n, double targetMs)
{
    for (int round = 0; round < 2; round++) {
        double ms = runMs(vm, mode, n);
        if (ms < 0) return 0;
        n = std::max<uint32_t>(
            1, (uint32_t)std::llround(n * targetMs / std::max(ms, 1e-3)));
    }
    return n;
}

/**
 * Runs run(n) under @p cfg with a count at every instruction, an
 * operand probe at every branch and a count at every function entry.
 * With @p global the instruction count comes from one global probe.
 */
bool
measure(const std::shared_ptr<const ValidatedModule>& vm, uint32_t n,
        EngineConfig cfg, bool global, Expected* out)
{
    Engine eng(cfg);
    if (!eng.loadShared(vm).ok() || !eng.instantiate().ok()) return false;
    std::vector<ProbeManager::SiteProbe> batch;
    std::vector<std::shared_ptr<CountProbe>> instr, entry;
    std::vector<std::shared_ptr<BranchCounter>> branch;
    uint32_t lastFunc = UINT32_MAX;
    for (auto [f, pc] : allSites(eng)) {
        if (f != lastFunc) {  // a function's first site is its entry
            lastFunc = f;
            entry.push_back(std::make_shared<CountProbe>());
            batch.push_back({f, pc, entry.back()});
        }
        if (!global) {
            instr.push_back(std::make_shared<CountProbe>());
            batch.push_back({f, pc, instr.back()});
        }
        if (isBranchOpcode(eng.funcState(f).decl->code[pc])) {
            branch.push_back(std::make_shared<BranchCounter>());
            batch.push_back({f, pc, branch.back()});
        }
    }
    auto g = std::make_shared<CountProbe>();
    if (global) eng.probes().insertGlobal(g);
    eng.probes().insertBatch(batch);
    auto r = eng.callExport("run", {Value::makeI32(n)});
    if (!r.ok()) return false;
    *out = Expected{};
    out->checksumBits = resultBits(r);
    out->instrs = g->count;
    for (const auto& c : instr) out->instrs += c->count;
    for (const auto& c : branch) out->branchFires += c->count;
    for (const auto& c : entry) out->calls += c->count;
    return true;
}

} // namespace

int
calibrateMain()
{
    std::printf("# name n_p n_jit: run(n_p) takes about %.0f ms in the "
                "interpreter tier\n# (clean-int), run(n_jit) about %.0f ms "
                "in the compiled tier\n# (probe-churn), on the reference "
                "host. Regenerate with\n# `wizbench calibrate`, then "
                "regenerate expected.txt. See README.md.\n",
                kTargetMs, kJitTargetMs);
    for (const Program& p : encodeCorpus()) {
        auto vm = validated(p);
        if (!vm) return 1;
        uint32_t n = fitSize(vm, ExecMode::Interpreter, p.src->defaultN,
                             kTargetMs);
        uint32_t nJit =
            fitSize(vm, ExecMode::Jit, p.src->defaultN, kJitTargetMs);
        if (n == 0 || nJit == 0) {
            std::cerr << "calibrate: " << p.name << " trapped\n";
            return 1;
        }
        std::printf("%s %u %u\n", p.name.c_str(), n, nJit);
    }
    return 0;
}

int
expectMain(const std::string& dataDir)
{
    std::vector<Program> corpus = loadCorpus(dataDir, false);
    if (corpus.empty()) return 1;
    std::printf("# Expected outputs: name n checksum-bits instructions "
                "branch-fires calls.\n# From the reference configuration "
                "(interpreter, table dispatch, fusion\n# off, one global "
                "probe), cross-checked against the compiled tier.\n"
                "# Regenerate with `wizbench expect`. See README.md.\n");
    EngineConfig ref;
    ref.mode = ExecMode::Interpreter;
    ref.dispatch = DispatchBackend::Table;
    ref.fuseSuperinstructions = false;
    for (const Program& p : corpus) {
        std::vector<uint32_t> sizes = {p.n, p.nJit};
        if (p.name == "richards") sizes = {1, 2, 4, p.n, p.nJit};
        std::sort(sizes.begin(), sizes.end());
        sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
        auto vm = validated(p);
        for (uint32_t n : sizes) {
            Expected want, jit;
            if (!vm || !measure(vm, n, ref, true, &want) ||
                !measure(vm, n, EngineConfig{}, false, &jit)) {
                std::cerr << "expect: " << p.name << " trapped\n";
                return 1;
            }
            if (jit.checksumBits != want.checksumBits ||
                jit.instrs != want.instrs ||
                jit.branchFires != want.branchFires ||
                jit.calls != want.calls) {
                std::cerr << "expect: " << p.name << " n=" << n
                          << ": the compiled tier disagrees with the "
                             "reference configuration\n";
                return 1;
            }
            std::printf("%s %u %016llx %llu %llu %llu\n", p.name.c_str(), n,
                        (unsigned long long)want.checksumBits,
                        (unsigned long long)want.instrs,
                        (unsigned long long)want.branchFires,
                        (unsigned long long)want.calls);
        }
    }
    return 0;
}

} // namespace wizbench
