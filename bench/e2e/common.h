/**
 * @file
 * Shared pieces of the end-to-end benchmark program: clocks, a seeded
 * generator, sample statistics, the metric table and the workload
 * interface the harness in main.cpp drives.
 */

#ifndef WSC_BENCH_E2E_COMMON_H
#define WSC_BENCH_E2E_COMMON_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace.h"

namespace wsc::e2e {

/// @name Clocks
/// @{
/** Monotonic wall clock, nanoseconds. */
int64_t wallNs();
/** Process CPU time (all threads), nanoseconds. */
int64_t cpuNs();
/** Peak resident set size of the process, MiB. */
double peakRssMb();
/// @}

/** splitmix64: small, seedable, identical on every platform. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }
    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  private:
    uint64_t state_;
};

/** Zipf(s) over ranks 0..n-1 by inverse-CDF lookup. */
class Zipf
{
  public:
    Zipf(size_t n, double s);
    size_t draw(Rng &rng) const;

  private:
    std::vector<double> cdf_;
};

/// @name Sample statistics
/// @{
/** Linear-interpolated quantile, q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double geomean(const std::vector<double> &values);

/**
 * The tail quantile the sample supports: p99 with >= 1000 samples,
 * else the highest quantile with at least ten samples beyond it (never
 * below the median).
 */
double tailQuantile(size_t samples);
/// @}

/** One named metric with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using MetricTable = std::map<std::string, Metric>;

/**
 * What one timed phase of a workload produced. Besides every
 * operation's latency it splits the phase into windows (closed at the
 * first operation boundary `windowS` after they opened, or explicitly)
 * and keeps each window's throughput: written beside the run, they show
 * how the host's speed moved during it.
 */
struct Samples
{
    /** Latency of every completed operation, milliseconds. */
    std::vector<double> latencyMs;
    /**
     * When operations come as passes over a fixed mix of `mixSize`
     * inputs: the pass each latency sample belongs to. Empty otherwise.
     */
    std::vector<uint64_t> passOf;
    size_t mixSize = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double wallS = 0.0;
    double cpuS = 0.0;
    std::vector<double> windowOpsPerS;

    /**
     * Start the phase; windowS = 0 makes every operation a window.
     * `mixSize` > 0 declares that operations come as passes over a
     * fixed mix of that many inputs (see typicalLatencyMs).
     */
    void start(double windowS, size_t mixSize = 0);
    /** One operation (of pass `pass`, for a mix) finished. */
    void record(double opLatencyMs, bool ok, uint64_t pass = 0);
    /**
     * The typical operation latency: the median over operations, or,
     * for a mix, the median over complete passes of the pass's mean.
     * Operations of a mix whose costs differ by 20x have a median that
     * sits between clusters and jumps from one to the other as the
     * host's speed changes; a pass's mean moves with it smoothly.
     */
    double typicalLatencyMs() const;
    /** Close the open window now (if it holds any operation). */
    void closeWindow();
    /** End the phase (closes the open window). */
    void finish();
    /** Append another phase's samples (its passes after this one's). */
    void merge(const Samples &other);

  private:
    double windowS_ = 0.0;
    int64_t startWall_ = 0;
    int64_t startCpu_ = 0;
    int64_t windowWall_ = 0;
    uint64_t windowOps_ = 0;
};

/**
 * Failure causes, counted by reason, so a non-zero error ratio is
 * always reported with its cause.
 */
class Failures
{
  public:
    /** Thread-safe. */
    void
    record(const std::string &reason)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++byReason_[reason];
    }
    /** Read once the recording threads have finished. */
    const std::map<std::string, uint64_t> &
    byReason() const
    {
        return byReason_;
    }

  private:
    std::mutex mutex_;
    std::map<std::string, uint64_t> byReason_;
};

/**
 * A benchmark workload. The harness calls setUp() several times (each
 * call rebuilds the state the operations reuse and is timed for
 * setup_s, warm-up included), then prepareOracle() (untimed), then
 * measure() for the timed phase(s), and in traced mode replay().
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual void setUp(Tracer *tracer) = 0;
    virtual void prepareOracle() {}
    /**
     * Run operations for at least `seconds`; spans go to `tracer`.
     * `stream` picks the input sequence: two calls with the same stream
     * draw the same inputs (the traced and untraced blocks of the
     * tracing-overhead comparison), different streams different ones.
     */
    virtual Samples measure(double seconds, Tracer *tracer, uint64_t stream) = 0;
    /**
     * Traced mode only: run the layer calls that the operations hide
     * behind one public call (service jobs, model measurements)
     * directly, with spans, once per distinct input.
     */
    virtual void replay(Tracer &tracer) { (void)tracer; }

    /**
     * Deterministic results of the run (simulated cycles, CSL bytes,
     * oracle verdicts). Written in both modes so a traced run can be
     * checked against an untraced one.
     */
    virtual MetricTable deterministic() const = 0;
    /** Per-layer metrics after a traced run (zeros where not exercised). */
    virtual MetricTable layerMetrics(const Tracer &tracer) const = 0;

    Failures &failures() { return failures_; }
    const Failures &failures() const { return failures_; }

  protected:
    Failures failures_;
};

std::unique_ptr<Workload> makeServiceMix(uint64_t seed);
std::unique_ptr<Workload> makeWaferSim(uint64_t seed);
std::unique_ptr<Workload> makePaperSweep(uint64_t seed);

/** Directory holding the golden files (tests/golden in the checkout). */
std::string goldenDir();
/** Whole file as a string; empty when it cannot be read. */
std::string readFile(const std::string &path);

} // namespace wsc::e2e

#endif // WSC_BENCH_E2E_COMMON_H
