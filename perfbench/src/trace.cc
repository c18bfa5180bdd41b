#include "trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iomanip>

namespace wizbench {

namespace {

std::atomic<uint64_t> gTracerIds{1};

// The calling thread's buffer for the tracer whose id it carries; a
// thread that meets a different tracer registers a fresh buffer.
thread_local uint64_t tlTracerId = 0;
thread_local void* tlBuf = nullptr;

} // namespace

const char*
layerName(Layer l)
{
    switch (l) {
      case Layer::Job: return "job";
      case Layer::Wasm: return "wasm";
      case Layer::Engine: return "engine";
      case Layer::Interp: return "interp";
      case Layer::Jit: return "jit";
      case Layer::Probes: return "probes";
      case Layer::Serve: return "serve";
      case Layer::Count: break;
    }
    return "?";
}

Tracer::Tracer(bool enabled) : _enabled(enabled), _id(gTracerIds++) {}

Tracer::ThreadBuf&
Tracer::local()
{
    if (tlTracerId != _id) {
        auto buf = std::make_unique<ThreadBuf>();
        buf->spans.reserve(1 << 14);
        std::lock_guard<std::mutex> g(_mu);
        buf->thread = (uint32_t)_bufs.size();
        tlBuf = buf.get();
        tlTracerId = _id;
        _bufs.push_back(std::move(buf));
    }
    return *static_cast<ThreadBuf*>(tlBuf);
}

int32_t
Tracer::open(const char* name, Layer layer, uint64_t job, double start)
{
    if (!_enabled) return -1;
    ThreadBuf& b = local();
    Span s;
    s.name = name;
    s.layer = layer;
    s.thread = b.thread;
    s.parent = b.open.empty() ? -1 : b.open.back();
    s.job = job;
    s.start = start;
    s.end = start;
    b.spans.push_back(s);
    int32_t id = (int32_t)b.spans.size() - 1;
    b.open.push_back(id);
    return id;
}

void
Tracer::close(int32_t id, double end)
{
    if (id < 0) return;
    ThreadBuf& b = local();
    b.spans[(size_t)id].end = end;
    // Spans close innermost-first; tolerate an outer close that skips
    // an inner span left open by an early return.
    while (!b.open.empty()) {
        int32_t top = b.open.back();
        b.open.pop_back();
        if (top == id) break;
        b.spans[(size_t)top].end = end;
    }
}

std::vector<std::vector<Span>>
Tracer::threads() const
{
    std::lock_guard<std::mutex> g(_mu);
    std::vector<std::vector<Span>> out;
    for (const auto& b : _bufs) out.push_back(b->spans);
    return out;
}

bool
Tracer::write(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) return false;
    out << std::fixed << std::setprecision(3);
    for (const auto& spans : threads()) {
        for (const Span& s : spans) {
            out << "{\"name\":\"" << s.name << "\",\"layer\":\""
                << layerName(s.layer) << "\",\"thread\":" << s.thread
                << ",\"parent\":" << s.parent << ",\"job\":" << s.job
                << ",\"start_us\":" << s.start << ",\"end_us\":" << s.end
                << "}\n";
        }
    }
    return (bool)out;
}

TraceSummary
summarize(const Tracer& t)
{
    TraceSummary sum;
    for (const auto& spans : t.threads()) {
        sum.spans += spans.size();
        std::vector<std::vector<int32_t>> children(spans.size());
        for (size_t i = 0; i < spans.size(); i++) {
            if (spans[i].parent >= 0) {
                children[(size_t)spans[i].parent].push_back((int32_t)i);
            }
        }
        // Check the nesting: each child lies inside its parent, after
        // its previous sibling, and belongs to its parent's job. Where
        // that holds, a span's children cover the sum of their
        // durations, and the self times under a job add up to the
        // job's duration by construction.
        std::vector<double> self(spans.size());
        for (size_t i = 0; i < spans.size(); i++) {
            const Span& s = spans[i];
            self[i] = s.end - s.start;
            double prevEnd = s.start;
            for (int32_t c : children[i]) {
                const Span& k = spans[(size_t)c];
                if (k.job != s.job || k.start < prevEnd || k.end < k.start ||
                    k.end > s.end) {
                    sum.nestingErrors++;
                }
                prevEnd = std::max(prevEnd, k.end);
                self[i] -= k.end - k.start;
            }
            sum.selfUs[(int)s.layer] += self[i];
        }
        // Each top-level span is a job; the self time of its Job-layer
        // spans is its unattributed remainder.
        std::vector<int32_t> top(spans.size());
        std::vector<double> unattributed(spans.size(), 0);
        for (size_t i = 0; i < spans.size(); i++) {
            int32_t p = spans[i].parent;
            top[i] = p < 0 ? (int32_t)i : top[(size_t)p];
            if (spans[i].layer == Layer::Job) {
                unattributed[(size_t)top[i]] += self[i];
            }
        }
        for (size_t i = 0; i < spans.size(); i++) {
            if (spans[i].parent >= 0) continue;
            sum.jobUs.push_back(spans[i].end - spans[i].start);
            sum.unattributedUs.push_back(unattributed[i]);
        }
    }
    return sum;
}

} // namespace wizbench
