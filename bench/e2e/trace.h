/**
 * @file
 * In-memory span recorder for the benchmark's traced mode.
 *
 * Spans are recorded by the benchmark around its own calls into each
 * layer of the library (nothing inside src/ is instrumented). Every
 * span has a name ("<layer>.<what>"), a start, an end, a parent and the
 * id of the operation it belongs to. Spans stay in memory and are
 * written when the run ends, as Chrome trace-event JSON (opens in
 * Perfetto or chrome://tracing). A disabled or null tracer records
 * nothing, so the untraced run pays one branch per call site.
 *
 * Thread-safe: each recording thread has its own stack of open spans
 * and its own current operation. The read-out functions are called
 * once the recording threads have finished.
 */

#ifndef WSC_BENCH_E2E_TRACE_H
#define WSC_BENCH_E2E_TRACE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace wsc::e2e {

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        uint32_t id = 0;
        /** Parent span id; 0 for an operation's root span. */
        uint32_t parent = 0;
        /** Operation the span belongs to (shared by all its spans). */
        uint64_t op = 0;
        /** Recording thread, numbered from 1 in order of first use. */
        uint32_t thread = 0;
        int64_t startNs = 0;
        int64_t endNs = 0;
    };

    /**
     * Start a new operation on the calling thread; its later root spans
     * belong to it.
     */
    void beginOp();

    /**
     * Open a span under the calling thread's innermost open one;
     * returns its id.
     */
    uint32_t begin(std::string name);
    /** Close the innermost open span (which must be `id`). */
    void end(uint32_t id);
    /**
     * Record an already-finished span (times measured elsewhere, e.g.
     * reported by the service or taken in a pass hook) under `parent`.
     */
    uint32_t add(std::string name, int64_t startNs, int64_t endNs,
                 uint32_t parent);

    /** Number of operations started. */
    uint64_t ops() const { return ops_; }

    /** Durations (ms) of every span with this exact name. */
    std::vector<double> durationsMs(const std::string &name) const;
    /**
     * Self time per layer (ms, summed over all spans): a span's
     * duration minus the part its child spans cover. The layer is the
     * span name up to the first '.'.
     */
    std::map<std::string, double> selfMsByLayer() const;

    /** Chrome trace-event JSON ("X" complete events, microseconds). */
    bool writeChromeTrace(const std::string &path) const;

    /** RAII span; a null tracer makes it a no-op. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, std::string name)
            : tracer_(tracer),
              id_(tracer ? tracer->begin(std::move(name)) : 0)
        {
        }
        ~Scope()
        {
            if (tracer_)
                tracer_->end(id_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        uint32_t id() const { return id_; }

      private:
        Tracer *tracer_;
        uint32_t id_;
    };

  private:
    struct ThreadState
    {
        uint32_t index = 0;
        std::vector<uint32_t> stack;
        uint64_t op = 0;
    };
    /** The calling thread's state; mutex_ held. */
    ThreadState &local();
    uint32_t addLocked(std::string name, int64_t startNs, int64_t endNs, uint32_t parent);

    std::mutex mutex_;
    std::map<std::thread::id, ThreadState> threads_;
    std::vector<Span> spans_;
    uint64_t ops_ = 0;
};

} // namespace wsc::e2e

#endif // WSC_BENCH_E2E_TRACE_H
