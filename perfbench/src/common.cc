#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace wizbench {

namespace {

const Clock::time_point kOrigin = Clock::now();

/** Kernel rounds: about kNominalRefMs on the reference host. */
constexpr uint32_t kRefRounds = 70;

std::string
formatNumber(double v)
{
    if (!std::isfinite(v)) return "null";
    char buf[64];
    if (v == std::floor(v) && std::fabs(v) < 0x1p53) {
        std::snprintf(buf, sizeof buf, "%.0f", v);
    } else {
        std::snprintf(buf, sizeof buf, "%.17g", v);
    }
    return buf;
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(Clock::now() - kOrigin)
        .count();
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty()) return 0;
    std::sort(xs.begin(), xs.end());
    double pos = q * (double)(xs.size() - 1);
    size_t lo = (size_t)pos;
    size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = pos - (double)lo;
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return (double)ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double
timeReferenceKernel()
{
    static volatile uint64_t sink = 0;
    double t0 = nowUs();
    sink = sink ^ referenceKernel(kRefRounds);
    return (nowUs() - t0) / 1e3;
}

void
Report::put(const std::string& name, double value, const std::string& unit)
{
    for (Metric& m : _metrics) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    _metrics.push_back({name, value, unit});
}

void
Report::fail(const std::string& what)
{
    _failed++;
    if (_failures.size() < 8) _failures.push_back(what);
}

void
Report::absorbChecks(const Report& other)
{
    _attempted += other._attempted;
    _failed += other._failed;
    for (const std::string& f : other._failures) {
        if (_failures.size() < 8) _failures.push_back(f);
    }
}

double
Report::get(const std::string& name) const
{
    for (const Metric& m : _metrics) {
        if (m.name == name) return m.value;
    }
    return NAN;
}

std::string
Report::json() const
{
    std::ostringstream o;
    o << "{\"correct\": " << (_failed == 0 ? "true" : "false")
      << ", \"attempted\": " << _attempted << ", \"failed\": " << _failed
      << ", \"metrics\": {";
    for (size_t i = 0; i < _metrics.size(); i++) {
        const Metric& m = _metrics[i];
        o << (i ? ", " : "") << jsonString(m.name)
          << ": {\"value\": " << formatNumber(m.value)
          << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    o << "}}";
    return o.str();
}

std::string
Report::table() const
{
    std::ostringstream o;
    for (const Metric& m : _metrics) {
        o << "  " << m.name << " " << formatNumber(m.value) << " " << m.unit
          << "\n";
    }
    return o.str();
}

} // namespace wizbench
