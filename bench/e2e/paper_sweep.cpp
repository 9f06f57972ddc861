/**
 * @file
 * Workload `paper_sweep`: the paper's figure data, one point per
 * operation. A point is frontend -> runPipeline ->
 * model::measureLoweredModule for one of the five benchmarks at the
 * small problem size (100x100), on WSE2 or WSE3, with all §5.7
 * optimisations on or one of them off; the model simulates a small
 * sub-grid on the sequential (threads=1) simulator.
 *
 * Operations are passes over the 58 points that produce figure numbers,
 * each pass in a seeded order, so every run measures the same mix. The
 * points of the stream are shared out to kWorkers threads, each with
 * its own ir::Context, as a parallel sweep runner would: a run's
 * throughput then rests on every core of the host rather than on the
 * one a single thread happens to get. After the timed phase the two
 * points that may not fit PE memory
 * and the five golden configurations of tests/golden/cycle_counts.txt
 * run untimed: each golden configuration simulates its whole grid and
 * must reproduce the golden final cycle and the fields of
 * model::ReferenceExecutor.
 */

#include <atomic>
#include <cmath>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "codegen/csl_emitter.h"
#include "common.h"
#include "dialects/all.h"
#include "layers.h"
#include "model/flops.h"
#include "model/reference.h"
#include "model/wafer_model.h"
#include "support/error.h"

namespace wsc::e2e {
namespace {

constexpr int64_t kProblem = 100;
constexpr int64_t kSteps = 12;
constexpr int64_t kWarmupSteps = 4;
constexpr double kTolerance = 1e-4;
/** Sweep threads (each simulation stays sequential); at most the cores. */
constexpr unsigned kWorkers = 4;
constexpr double kWindowS = 2.0;

const char *const kBenchmarks[] = {"Jacobian", "Diffusion", "Acoustic", "Seismic",
                                   "UVKBE"};
const char *const kToggles[] = {"all-on", "no-inlining", "no-varith-fusion",
                                "no-coeff-promotion", "no-one-shot", "no-fmac"};

transforms::PipelineOptions
toggleOptions(size_t toggle)
{
    transforms::PipelineOptions o;
    switch (toggle) {
    case 1: o.enableStencilInlining = false; break;
    case 2: o.enableVarithFusion = false; break;
    case 3: o.enableCoeffPromotion = false; break;
    case 4: o.enableOneShotReduction = false; break;
    case 5: o.enableFmacFusion = false; break;
    default: break;
    }
    return o;
}

fe::Benchmark
paperBenchmark(size_t b)
{
    switch (b) {
    case 0: return fe::makeJacobian(kProblem, kProblem, kSteps);
    case 1: return fe::makeDiffusion(kProblem, kProblem, kSteps);
    case 2: return fe::makeAcoustic(kProblem, kProblem, kSteps);
    case 3: return fe::makeSeismic(kProblem, kProblem, kSteps);
    default: return fe::makeUvkbe(kProblem, kProblem);
    }
}

struct Point
{
    std::string name;
    fe::Benchmark bench;
    transforms::PipelineOptions options;
    wse::ArchParams arch = wse::ArchParams::wse3();
    bool wse3 = true;
    size_t toggle = 0;
    /** Golden configuration: full-grid simulation with these values. */
    bool golden = false;
    int grid = 0;
    uint64_t goldenCycle = 0;
    int compareMargin = 0;
    std::vector<std::vector<float>> reference; // per field, x-major
    /**
     * Seismic without fmac fusion: the scratch buffers fmac fusion
     * removes push its z=450 column past the 48 kB PE memory (see
     * bench/ablation_optimizations.cpp), so "does not fit" is a correct
     * verdict for this point.
     */
    bool mayExceedMemory = false;
    bool exceededMemory = false;
    /** First result, for run-to-run equality. */
    double result = -1.0;
    double gpts = 0.0;
};

/**
 * The simulated sub-grid edge of a figure point: wide enough for an
 * interior PE whose neighbourhood (twice the stencil radius) is all
 * interior, at least 7, at most the problem grid. Passed to the model
 * and used by the replay, so both simulate the same sub-grid.
 */
int
subGrid(const fe::Program &program)
{
    const fe::Grid &grid = program.grid();
    return static_cast<int>(
        std::min<int64_t>({std::max(4 * xyRadius(program) + 1, 7), grid.nx, grid.ny}));
}

/** Steady-state cycles per step, as measureLoweredModule computes it. */
double
modelCyclesPerStep(const std::vector<wse::Cycles> &marks, wse::Cycles finalCycle,
                   int64_t steps)
{
    if (marks.size() >= 3) {
        size_t w = std::min<size_t>(kWarmupSteps, marks.size() - 2);
        return static_cast<double>(marks.back() - marks[w]) /
               static_cast<double>(marks.size() - 1 - w);
    }
    return static_cast<double>(finalCycle) /
           static_cast<double>(std::max<int64_t>(steps, 1));
}

class PaperSweep : public Workload
{
  public:
    explicit PaperSweep(uint64_t seed) : seed_(seed) {}

    void
    setUp(Tracer *tracer) override
    {
        (void)tracer;
        points_.clear();
        for (size_t b = 0; b < 5; ++b)
            for (int wse3 = 0; wse3 < 2; ++wse3)
                for (size_t t = 0; t < 6; ++t) {
                    Point p;
                    p.bench = paperBenchmark(b);
                    p.name = std::string(kBenchmarks[b]) + (wse3 ? "/WSE3/" : "/WSE2/") +
                             kToggles[t];
                    p.options = toggleOptions(t);
                    p.arch = wse3 ? wse::ArchParams::wse3() : wse::ArchParams::wse2();
                    p.wse3 = wse3 != 0;
                    p.toggle = t;
                    p.mayExceedMemory = b == 3 && t == 5;
                    points_.push_back(std::move(p));
                }
        // tests/golden/test_golden_csl.cpp, SimulatedCycleCounts.
        struct GoldenConfig
        {
            const char *key;
            fe::Benchmark bench;
            int grid;
            int margin;
        };
        GoldenConfig configs[] = {
            {"jacobian_7x7x4", fe::makeJacobian(7, 7, 4, 64), 7, 0},
            {"diffusion_7x7x4", fe::makeDiffusion(7, 7, 4, 16), 7, 0},
            {"acoustic_8x8x3", fe::makeAcoustic(8, 8, 3, 32), 8, 0},
            {"seismic_8x8x3", fe::makeSeismic(8, 8, 3, 20), 8, 0},
            {"uvkbe_8x8", fe::makeUvkbe(8, 8, 24), 8, 1},
        };
        std::istringstream golden(readFile(goldenDir() + "/cycle_counts.txt"));
        std::map<std::string, uint64_t> cycles;
        std::string key;
        uint64_t value = 0;
        while (golden >> key >> value)
            cycles[key.substr(0, key.size() - 1)] = value; // drop ':'
        for (GoldenConfig &c : configs) {
            Point p;
            p.name = std::string("golden/") + c.key;
            p.bench = std::move(c.bench);
            p.golden = true;
            p.grid = c.grid;
            p.compareMargin = c.margin;
            p.goldenCycle = cycles[c.key];
            if (p.goldenCycle == 0)
                failures_.record(std::string("no golden cycle count for ") + c.key);
            points_.push_back(std::move(p));
        }
        unsigned workers = std::min(kWorkers, std::max(1u, std::thread::hardware_concurrency()));
        ctxs_.clear();
        for (unsigned w = 0; w < workers; ++w) {
            ctxs_.push_back(std::make_unique<ir::Context>());
            dialects::registerAllDialects(*ctxs_.back());
        }
        // Warm-up: compile every distinct module once (the architecture
        // does not change the module), measure each kernel's all-on
        // WSE3 point and simulate the golden configurations (their
        // fields are checked later, once the oracle exists). The
        // contexts take turns, so each has grown its arena before timing.
        size_t turn = 0;
        for (Point &p : points_) {
            ir::Context &ctx = *ctxs_[turn++ % ctxs_.size()];
            if (p.golden || (p.wse3 && p.toggle == 0)) {
                runPoint(p, ctx, nullptr);
            } else if (p.wse3) {
                ctx.reset();
                ir::OwningOp module = p.bench.program.emit(ctx);
                if (!transforms::runPipeline(module.get(), p.options))
                    failures_.record("set-up compile failed: " + p.name);
            }
        }
    }

    void
    prepareOracle() override
    {
        for (Point &p : points_) {
            if (!p.golden)
                continue;
            model::ReferenceExecutor ref(p.bench.program, p.bench.init);
            ref.run(std::max<int64_t>(p.bench.program.timesteps(), 1));
            const fe::Grid &grid = p.bench.program.grid();
            p.reference.assign(p.bench.program.numFields(), {});
            for (size_t f = 0; f < p.reference.size(); ++f)
                for (int64_t x = 0; x < grid.nx; ++x)
                    for (int64_t y = 0; y < grid.ny; ++y)
                        for (int64_t z = 0; z < grid.nz; ++z)
                            p.reference[f].push_back(ref.at(f, x, y, z));
        }
    }

    Samples
    measure(double seconds, Tracer *tracer, uint64_t stream) override
    {
        std::vector<size_t> mix;
        for (size_t i = 0; i < points_.size(); ++i)
            if (timed(points_[i]))
                mix.push_back(i);
        // Operation k of the stream is point passes[k / n][k % n]; each
        // pass is a fresh seeded shuffle of the mix, drawn in pass order.
        Rng rng(seed_ ^ (0x1111ULL * (stream + 1)));
        std::vector<std::vector<size_t>> passes;
        std::mutex mutex; // guards passes and s
        std::atomic<uint64_t> next{0};
        Samples s;
        s.start(kWindowS, mix.size());
        int64_t deadline = wallNs() + static_cast<int64_t>(seconds * 1e9);
        auto work = [&](ir::Context &ctx) {
            for (;;) {
                uint64_t k = next.fetch_add(1);
                if (wallNs() >= deadline)
                    return;
                uint64_t pass = k / mix.size();
                size_t idx = 0;
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    while (passes.size() <= pass) {
                        std::vector<size_t> order = mix;
                        for (size_t i = order.size(); i > 1; --i)
                            std::swap(order[i - 1], order[rng.below(i)]);
                        passes.push_back(std::move(order));
                    }
                    idx = passes[pass][k % mix.size()];
                }
                int64_t start = wallNs();
                bool ok = false;
                try {
                    ok = runPoint(points_[idx], ctx, tracer);
                } catch (const std::exception &e) {
                    // Not across the thread boundary: count it instead.
                    failures_.record("point threw: " + points_[idx].name + ": " + e.what());
                }
                double ms = static_cast<double>(wallNs() - start) / 1e6;
                std::lock_guard<std::mutex> lock(mutex);
                s.record(ms, ok, pass);
            }
        };
        std::vector<std::thread> pool;
        for (size_t w = 1; w < ctxs_.size(); ++w)
            pool.emplace_back(work, std::ref(*ctxs_[w]));
        work(*ctxs_[0]);
        for (std::thread &t : pool)
            t.join();
        s.finish();
        for (Point &p : points_) {
            if (timed(p))
                continue;
            bool ok = runPoint(p, *ctxs_[0], tracer);
            ++s.attempted;
            s.failed += ok ? 0 : 1;
        }
        return s;
    }

    void
    replay(Tracer &tracer) override
    {
        // measureLoweredModule runs configure/launch/run behind one
        // call: repeat its sub-grid simulation (same sub-grid and
        // warm-up steps, passed to the model explicitly) once per point
        // with spans. A replay that does not land on the model's number
        // is counted and reported, not a failure: the steady-state
        // formula below mirrors the model's, which may change.
        for (Point &p : points_) {
            if (p.golden || p.exceededMemory)
                continue;
            tracer.beginOp();
            Tracer::Scope op(&tracer, "bench.replay");
            ir::Context &ctx = *ctxs_[0];
            ctx.reset();
            ir::OwningOp module;
            {
                Tracer::Scope s(&tracer, "frontends.emit");
                module = p.bench.program.emit(ctx);
            }
            if (!runPipelineTraced(module.get(), p.options, &tracer)) {
                failures_.record("replay compile failed: " + p.name);
                continue;
            }
            {
                Tracer::Scope s(&tracer, "codegen.emit");
                codegen::EmittedCsl csl = codegen::emitCsl(module.get());
                cslBytes_ += csl.programFile.size() + csl.layoutFile.size();
            }
            int radius = xyRadius(p.bench.program);
            int g = subGrid(p.bench.program);
            wse::Simulator sim(p.arch, g, g);
            interp::CslProgramInstance instance(sim, module.get());
            setFieldInits(instance, p.bench.program, p.bench.init);
            {
                Tracer::Scope s(&tracer, "interp.configure");
                instance.configure();
            }
            {
                Tracer::Scope s(&tracer, "interp.launch");
                instance.launch();
            }
            {
                Tracer::Scope s(&tracer, "wse.run");
                sim.run(4000000000ULL);
            }
            SimCounters c = collectCounters(sim, instance, g / 2, g / 2);
            int64_t steps = p.bench.program.timesteps();
            double cps = modelCyclesPerStep(instance.stepMarks(g / 2, g / 2),
                                            c.finalCycle, steps);
            if (cps != p.result) {
                ++replayMismatches_;
                std::cerr << "note: replayed cycles per step " << cps << " differ from the "
                          << "model's " << p.result << ": " << p.name << "\n";
            }
            replayCounters_.push_back(c);
            if (p.wse3 && p.toggle == 0) {
                // Static (IR) work per PE per step against the simulated
                // totals over interior PEs x steps.
                model::WorkProfile work = model::analyzeProgramWork(module.get());
                double interior = static_cast<double>(g - 2 * radius) * (g - 2 * radius) *
                                  static_cast<double>(std::max<int64_t>(steps, 1));
                std::string b = p.name.substr(0, p.name.find('/'));
                flopsRatio_[b] = static_cast<double>(work.flops) /
                                 (static_cast<double>(c.stats.flops) / interior);
                memRatio_[b] = static_cast<double>(work.memBytes) /
                               (static_cast<double>(c.stats.memBytes) / interior);
            }
        }
    }

    MetricTable
    deterministic() const override
    {
        double exceeded = 0;
        for (const Point &p : points_)
            exceeded += p.exceededMemory ? 1 : 0;
        return {{"sim_cycles_per_step", {cyclesGeomean(), "cycles"}},
                {"wafer_gpts", {wse3GptsGeomean(), "GPts/s"}},
                {"paper_sweep.points_exceeding_pe_memory", {exceeded, "count"}},
                {"paper_sweep.replay_model_mismatches",
                 {static_cast<double>(replayMismatches_), "count"}}};
    }

    MetricTable
    layerMetrics(const Tracer &tracer) const override
    {
        MetricTable m = compileLayerMetrics(tracer);
        auto p50 = [&](const std::string &span) { return median(tracer.durationsMs(span)); };
        m["codegen.csl_bytes"] = {static_cast<double>(cslBytes_), "bytes"};
        m["model.measure_ms"] = {p50("model.measure"), "ms"};
        m["interp.configure_ms"] = {p50("interp.configure"), "ms"};
        m["interp.launch_ms"] = {p50("interp.launch"), "ms"};
        std::vector<double> runMs = tracer.durationsMs("wse.run");
        m["wse.run_ms"] = {median(runMs), "ms"};

        SimCounters sum;
        std::vector<double> busy;
        for (const SimCounters &c : replayCounters_) {
            sum.stats.eventsProcessed += c.stats.eventsProcessed;
            sum.stats.waveletsSent += c.stats.waveletsSent;
            sum.stats.flops += c.stats.flops;
            sum.stats.memBytes += c.stats.memBytes;
            sum.telemetry.windows += c.telemetry.windows;
            sum.telemetry.windowCycles += c.telemetry.windowCycles;
            sum.telemetry.shardWindowsRun += c.telemetry.shardWindowsRun;
            sum.telemetry.steals += c.telemetry.steals;
            sum.telemetry.outboxReallocs += c.telemetry.outboxReallocs;
            sum.fabricHops += c.fabricHops;
            sum.exchanges += c.exchanges;
            sum.chunks += c.chunks;
            busy.push_back(c.interiorBusyFrac);
        }
        double runS = 0.0;
        for (double ms : runMs)
            runS += ms / 1e3;
        m["wse.events"] = {static_cast<double>(sum.stats.eventsProcessed), "count"};
        m["wse.events_per_s"] = {
            runS > 0 ? static_cast<double>(sum.stats.eventsProcessed) / runS : 0.0, "1/s"};
        m["wse.windows"] = {static_cast<double>(sum.telemetry.windows), "count"};
        m["wse.avg_window_cycles"] = {
            sum.telemetry.windows ? static_cast<double>(sum.telemetry.windowCycles) /
                                        static_cast<double>(sum.telemetry.windows)
                                  : 0.0,
            "cycles"};
        m["wse.shard_windows"] = {static_cast<double>(sum.telemetry.shardWindowsRun), "count"};
        m["wse.steals"] = {static_cast<double>(sum.telemetry.steals), "count"};
        m["wse.outbox_reallocs"] = {static_cast<double>(sum.telemetry.outboxReallocs), "count"};
        m["wse.pe_busy_frac"] = {median(busy), "ratio"};
        m["wse.fabric_hops"] = {static_cast<double>(sum.fabricHops), "count"};
        m["wse.wavelets"] = {static_cast<double>(sum.stats.waveletsSent), "count"};
        m["wse.flops"] = {static_cast<double>(sum.stats.flops), "count"};
        m["wse.mem_bytes"] = {static_cast<double>(sum.stats.memBytes), "bytes"};
        m["comms.exchanges"] = {static_cast<double>(sum.exchanges), "count"};
        m["comms.chunks"] = {static_cast<double>(sum.chunks), "count"};
        for (const auto &[b, r] : flopsRatio_)
            m["model.flops_static_over_sim." + b] = {r, "ratio"};
        for (const auto &[b, r] : memRatio_)
            m["model.membytes_static_over_sim." + b] = {r, "ratio"};
        m["sim_cycles_per_step"] = {cyclesGeomean(), "cycles"};
        m["wafer_gpts"] = {wse3GptsGeomean(), "GPts/s"};
        return m;
    }

  private:
    /**
     * The golden configurations and the points that may not fit PE
     * memory are checked once per phase, outside the timing: they are
     * oracles and verdicts rather than figure numbers, and their
     * few-millisecond runs would sit at the low end of the latency
     * distribution and push its median onto the gap between the
     * Jacobian and the Diffusion/Acoustic clusters.
     */
    static bool timed(const Point &p) { return !p.golden && !p.mayExceedMemory; }

    /** Thread-safe for distinct contexts. */
    bool
    runPoint(Point &p, ir::Context &ctx, Tracer *tracer)
    {
        if (tracer)
            tracer->beginOp();
        Tracer::Scope op(tracer, "bench.op");
        ctx.reset();
        ir::OwningOp module;
        {
            Tracer::Scope s(tracer, "frontends.emit");
            module = p.bench.program.emit(ctx);
        }
        if (!runPipelineTraced(module.get(), p.options, tracer)) {
            failures_.record("compile failed: " + p.name);
            return false;
        }
        return p.golden ? runGolden(p, module.get(), tracer)
                        : runModel(p, module.get(), tracer);
    }

    bool
    runModel(Point &p, ir::Operation *module, Tracer *tracer)
    {
        model::MeasureOptions options;
        options.simGrid = subGrid(p.bench.program);
        options.warmupSteps = kWarmupSteps;
        model::WaferPerf perf;
        try {
            Tracer::Scope s(tracer, "model.measure");
            perf = model::measureLoweredModule(module, p.bench, p.arch, options);
        } catch (const FatalError &e) {
            // Points that may exceed memory run on one thread only.
            if (p.mayExceedMemory &&
                std::string(e.what()).find("out of memory") != std::string::npos) {
                p.exceededMemory = true;
                return true;
            }
            failures_.record("model failed: " + p.name + ": " + e.what());
            return false;
        }
        if (!(perf.cyclesPerStep > 0) || !std::isfinite(perf.gptsPerSec)) {
            failures_.record("model returned no cycles: " + p.name);
            return false;
        }
        // Two passes may run one point at the same time.
        std::lock_guard<std::mutex> lock(resultMutex_);
        if (p.result < 0) {
            p.result = perf.cyclesPerStep;
            p.gpts = perf.gptsPerSec;
        } else if (perf.cyclesPerStep != p.result) {
            failures_.record("cycles per step differ between runs: " + p.name);
            return false;
        }
        return true;
    }

    bool
    runGolden(Point &p, ir::Operation *module, Tracer *tracer)
    {
        wse::Simulator sim(wse::ArchParams::wse3(), p.grid, p.grid);
        interp::CslProgramInstance instance(sim, module);
        setFieldInits(instance, p.bench.program, p.bench.init);
        {
            Tracer::Scope s(tracer, "interp.configure");
            instance.configure();
        }
        {
            Tracer::Scope s(tracer, "interp.launch");
            instance.launch();
        }
        wse::Cycles cycle = 0;
        {
            Tracer::Scope s(tracer, "wse.run");
            cycle = sim.run(4000000000ULL);
        }
        if (cycle != p.goldenCycle) {
            failures_.record("final cycle differs from cycle_counts.txt: " + p.name);
            return false;
        }
        const fe::Program &program = p.bench.program;
        const fe::Grid &grid = program.grid();
        int m = p.compareMargin;
        for (size_t f = 0; !p.reference.empty() && f < program.numFields(); ++f) {
            if (program.isIntermediate(f))
                continue;
            for (int x = m; x < p.grid - m; ++x)
                for (int y = m; y < p.grid - m; ++y) {
                    std::vector<float> col = instance.readFieldColumn(program.fieldName(f), x, y);
                    for (size_t z = 0; z < col.size(); ++z) {
                        float r = p.reference[f][(static_cast<size_t>(x) * grid.ny + y) *
                                                     grid.nz + z];
                        if (std::abs(col[z] - r) / std::max(1.0, std::abs(double(r))) >
                            kTolerance) {
                            failures_.record("field differs from ReferenceExecutor: " +
                                             p.name);
                            return false;
                        }
                    }
                }
        }
        return true;
    }

    double
    cyclesGeomean() const
    {
        std::vector<double> v;
        for (const Point &p : points_)
            if (!p.golden && p.result > 0)
                v.push_back(p.result);
        return geomean(v);
    }

    double
    wse3GptsGeomean() const
    {
        std::vector<double> v;
        for (const Point &p : points_)
            if (!p.golden && p.wse3 && p.gpts > 0)
                v.push_back(p.gpts);
        return geomean(v);
    }

    uint64_t seed_;
    std::vector<Point> points_;
    /** One per sweep thread; the first also serves set-up and replay. */
    std::vector<std::unique_ptr<ir::Context>> ctxs_;
    std::mutex resultMutex_;
    std::vector<SimCounters> replayCounters_;
    std::map<std::string, double> flopsRatio_;
    std::map<std::string, double> memRatio_;
    size_t cslBytes_ = 0;
    uint64_t replayMismatches_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makePaperSweep(uint64_t seed)
{
    return std::make_unique<PaperSweep>(seed);
}

} // namespace wsc::e2e
