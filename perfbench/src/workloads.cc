#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>

#include "wasm/decoder.h"

namespace wizbench {

using namespace wizpp;

uint32_t
passesFor(double perSecond, int seconds, size_t programs)
{
    return std::max<uint32_t>(
        1, (uint32_t)std::llround(perSecond * seconds / (double)programs));
}

std::vector<std::shared_ptr<const ValidatedModule>>
decodeAndValidate(const std::vector<Program>& corpus, Tracer& tracer,
                  Report& report, std::vector<double>* decodeUs,
                  std::vector<double>* validateUs)
{
    std::vector<std::shared_ptr<const ValidatedModule>> out;
    for (const Program& p : corpus) {
        Timed dt(tracer, "wasm.decode", Layer::Wasm, 0);
        auto m = decodeModule(p.bytes);
        decodeUs->push_back(dt.stop());
        if (!m.ok()) {
            report.fail("decode " + p.name + ": " + m.error().toString());
            return {};
        }
        Timed vt(tracer, "wasm.validate", Layer::Wasm, 0);
        auto vm = ValidatedModule::create(m.take());
        validateUs->push_back(vt.stop());
        if (!vm.ok()) {
            report.fail("validate " + p.name + ": " + vm.error().toString());
            return {};
        }
        out.push_back(vm.take());
    }
    return out;
}

std::vector<std::shared_ptr<const ValidatedModule>>
Setups::run(const std::vector<Program>& corpus, Tracer& tracer,
            Report& report)
{
    std::vector<std::shared_ptr<const ValidatedModule>> vms;
    if (!seconds.empty()) {
        // One untimed pass first: it faults back in the pages that the
        // last sample's trim (below) handed back.
        Tracer off(false);
        std::vector<double> d, v;
        if (decodeAndValidate(corpus, off, report, &d, &v).empty()) return {};
    }
    Timed t(tracer, "setup", Layer::Job, 0);
    for (int pass = 0; pass < kSetupPasses; pass++) {
        vms.clear();
        vms = decodeAndValidate(corpus, tracer, report, &decodeUs,
                                &validateUs);
        if (vms.empty()) return {};
    }
    seconds.push_back(t.stop() / 1e6 / kSetupPasses);
    // Between two jobs, the passes allocate into the 16 MiB value stack
    // the last engine freed, and the small chunks they leave behind can
    // keep the next engine from fitting there: it then grows the heap,
    // and peak_rss_mb read 24 or 39 MB by luck of layout. Handing the
    // heap's free pages back to the system keeps the set-up's leftovers
    // out of the peak.
    malloc_trim(0);
    return vms;
}

void
putSetupMetrics(Report& report, const Setups& setups, uint64_t moduleBytes)
{
    const std::vector<double>& s = setups.seconds;
    std::vector<double> warm(s.begin() + (s.size() > 1 ? 1 : 0), s.end());
    report.put("setup_s", median(warm), "s");
    report.put("host.cold_setup_s", s.empty() ? 0 : s[0], "s");
    report.put("wasm.decode_us", median(setups.decodeUs), "us");
    report.put("wasm.validate_us", median(setups.validateUs), "us");
    report.put("wasm.module_bytes", (double)moduleBytes, "count");
}

void
putQuantiles(Report& report, const std::string& prefix,
             const std::vector<double>& xs, const std::string& unit,
             std::initializer_list<int> percents)
{
    for (int p : percents) {
        report.put(prefix + "_p" + std::to_string(p),
                   quantile(xs, p / 100.0), unit);
    }
}

void
EngineCounters::add(const Engine& e)
{
    fusedWindows += e.stats.fusedWindows;
    functionsCompiled += e.stats.functionsCompiled;
    jitInvalidations += e.stats.jitInvalidations;
    frameDeopts += e.stats.frameDeopts;
    fusionSplits += e.stats.fusionSplits;
    fusionRefusions += e.stats.fusionRefusions;
}

void
EngineCounters::put(Report& report) const
{
    report.put("engine.fused_windows", (double)fusedWindows, "count");
    report.put("engine.functions_compiled", (double)functionsCompiled,
               "count");
    report.put("engine.jit_invalidations", (double)jitInvalidations,
               "count");
    report.put("engine.frame_deopts", (double)frameDeopts, "count");
    report.put("engine.fusion_splits", (double)fusionSplits, "count");
    report.put("engine.fusion_refusions", (double)fusionRefusions, "count");
}

} // namespace wizbench
