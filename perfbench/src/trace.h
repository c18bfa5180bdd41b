/**
 * @file
 * Spans recorded from outside the engine: the benchmark wraps each
 * public call it makes (decode, validate, Engine construction, load,
 * instantiate, calls, probe insert/remove, pool operations) in a span
 * whose parent is the enclosing job. Spans stay in memory, per
 * thread, and are written out when the run ends.
 *
 * A span's self time is its duration minus its child spans'. Where the
 * spans nest (summarize() checks it), the self times of a job's spans,
 * plus the job span's own self time (its `unattributed` remainder),
 * add up to the job's duration.
 */

#ifndef WIZBENCH_TRACE_H
#define WIZBENCH_TRACE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace wizbench {

/** The repository layer a span's time is charged to. */
enum class Layer : uint8_t {
    Job,     ///< a whole job; its self time is `unattributed`
    Wasm,    ///< src/wasm: decode, validate
    Engine,  ///< src/engine: construct, load, instantiate, destroy
    Interp,  ///< calls executed by the interpreter tier
    Jit,     ///< calls executed by the compiled tier
    Probes,  ///< src/probes (and monitors built on it): insert, remove
    Serve,   ///< src/serve: pool start, queueing, fleet ops
    Count
};

const char* layerName(Layer l);

struct Span
{
    const char* name = "";
    Layer layer = Layer::Job;
    uint32_t thread = 0;
    int32_t parent = -1;  ///< index into the same thread's spans
    uint64_t job = 0;
    double start = 0;     ///< nowUs()
    double end = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    bool enabled() const { return _enabled; }

    /**
     * Opens a span on the calling thread as a child of that thread's
     * innermost open span. Returns -1 when tracing is off.
     */
    int32_t open(const char* name, Layer layer, uint64_t job, double start);

    /** Closes span @p id (the calling thread's innermost open span);
        ignores -1. */
    void close(int32_t id, double end);

    /**
     * Per-thread span lists; read only after every recording thread
     * has finished.
     */
    std::vector<std::vector<Span>> threads() const;

    /** Writes every span as one JSON object per line. */
    bool write(const std::string& path) const;

  private:
    struct ThreadBuf
    {
        uint32_t thread = 0;
        std::vector<Span> spans;
        std::vector<int32_t> open;  ///< stack of open span indices
    };
    ThreadBuf& local();

    const bool _enabled;
    const uint64_t _id;
    mutable std::mutex _mu;  ///< guards _bufs (registration only)
    std::vector<std::unique_ptr<ThreadBuf>> _bufs;
};

/**
 * Times one call from outside; when tracing, also records it as a
 * span. stop() returns the elapsed microseconds.
 */
class Timed
{
  public:
    Timed(Tracer& t, const char* name, Layer layer, uint64_t job,
          double start = nowUs())
        : _t(t), _start(start), _id(t.open(name, layer, job, start))
    {}

    double
    stop()
    {
        double end = nowUs();
        if (_id >= 0) _t.close(_id, end);
        _id = -1;
        return end - _start;
    }

    ~Timed()
    {
        if (_id >= 0) _t.close(_id, nowUs());
    }

    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

  private:
    Tracer& _t;
    double _start;
    int32_t _id;
};

/** What the spans say, summed over a run. */
struct TraceSummary
{
    double selfUs[(int)Layer::Count] = {};  ///< Job = unattributed
    std::vector<double> jobUs;              ///< each job's duration
    std::vector<double> unattributedUs;     ///< each job's remainder
    /** Children outside their parent, overlapping a sibling, or of
        another job than their parent's. */
    uint64_t nestingErrors = 0;
    uint64_t spans = 0;
};

TraceSummary summarize(const Tracer& t);

} // namespace wizbench

#endif // WIZBENCH_TRACE_H
