/**
 * @file
 * Workload `wafer_sim`: one full simulation of the paper's acoustic
 * kernel (13-point r=2 star) on 128x128 PEs, z=16, 4 steps, with the
 * sharded simulator at SimOptions{threads=4} and its default tiling
 * and policies. The module is compiled once in set-up; each operation
 * builds a fresh Simulator and CslProgramInstance, runs configure,
 * launch and run, and reads back sampled field columns, which must
 * match model::ReferenceExecutor (computed once, outside set-up time).
 *
 * The seed sets the initial field values and which columns are read.
 */

#include <cmath>
#include <optional>

#include "codegen/csl_emitter.h"
#include "common.h"
#include "dialects/all.h"
#include "layers.h"
#include "model/reference.h"

namespace wsc::e2e {
namespace {

constexpr int kGrid = 128;
constexpr int64_t kNz = 16;
constexpr int64_t kSteps = 4;
constexpr int kThreads = 4;
constexpr int kSampledColumns = 24;
constexpr double kTolerance = 1e-4;

class WaferSim : public Workload
{
  public:
    explicit WaferSim(uint64_t seed) : bench_(fe::makeAcoustic(kGrid, kGrid, kSteps, kNz))
    {
        // Seeded initial condition: the paper's wave field scaled and
        // shifted by seed-chosen constants.
        Rng rng(seed);
        double scale = 0.5 + rng.unit();
        double shift = rng.unit() - 0.5;
        fe::InitFn base = bench_.init;
        init_ = [base, scale, shift](int f, int64_t x, int64_t y, int64_t z) {
            return static_cast<float>(base(f, x, y, z) * scale + shift);
        };
        for (int i = 0; i < kSampledColumns; ++i)
            columns_.push_back({static_cast<int>(rng.below(kGrid)),
                                static_cast<int>(rng.below(kGrid))});
    }

    void
    setUp(Tracer *tracer) override
    {
        if (tracer)
            tracer->beginOp();
        Tracer::Scope op(tracer, "bench.setup");
        module_ = ir::OwningOp(); // dies before the context it lives in
        ctx_ = std::make_unique<ir::Context>();
        dialects::registerAllDialects(*ctx_);
        {
            Tracer::Scope s(tracer, "frontends.emit");
            module_ = bench_.program.emit(*ctx_);
        }
        ir::PipelineResult result =
            runPipelineTraced(module_.get(), transforms::PipelineOptions{}, tracer);
        if (!result)
            failures_.record("compile failed: " + result.str());
        {
            Tracer::Scope s(tracer, "codegen.emit");
            codegen::EmittedCsl csl = codegen::emitCsl(module_.get());
            cslBytes_ = csl.programFile.size() + csl.layoutFile.size();
        }
        // Warm-up: the first simulation of the fresh module (checked
        // against the oracle later, by the timed operations).
        runOp(nullptr);
    }

    void
    prepareOracle() override
    {
        model::ReferenceExecutor ref(bench_.program, init_);
        ref.run(kSteps);
        expected_.clear();
        for (size_t f = 0; f < bench_.program.numFields(); ++f) {
            if (bench_.program.isIntermediate(f))
                continue;
            for (auto [x, y] : columns_) {
                std::vector<float> col;
                for (int64_t z = 0; z < kNz; ++z)
                    col.push_back(ref.at(f, x, y, z));
                expected_.push_back({f, x, y, std::move(col)});
            }
        }
    }

    Samples
    measure(double seconds, Tracer *tracer, uint64_t stream) override
    {
        (void)stream; // every operation simulates the same inputs
        Samples s;
        s.start(0.0); // one operation per window
        int64_t deadline = wallNs() + static_cast<int64_t>(seconds * 1e9);
        do {
            int64_t start = wallNs();
            bool ok = runOp(tracer);
            s.record(static_cast<double>(wallNs() - start) / 1e6, ok);
        } while (wallNs() < deadline);
        s.finish();
        return s;
    }

    MetricTable
    deterministic() const override
    {
        return {{"sim_cycles_per_step", {counters_.cyclesPerStep, "cycles"}},
                {"codegen.csl_bytes", {static_cast<double>(cslBytes_), "bytes"}},
                {"wse.events",
                 {static_cast<double>(counters_.stats.eventsProcessed), "count"}},
                {"wse.windows",
                 {static_cast<double>(counters_.telemetry.windows), "count"}},
                {"wse.final_cycle",
                 {static_cast<double>(counters_.finalCycle), "cycles"}}};
    }

    MetricTable
    layerMetrics(const Tracer &tracer) const override
    {
        MetricTable m = compileLayerMetrics(tracer);
        auto p50 = [&](const char *span) { return median(tracer.durationsMs(span)); };
        const SimCounters &c = counters_;
        double runMs = p50("wse.run");
        m["interp.configure_ms"] = {p50("interp.configure"), "ms"};
        m["interp.launch_ms"] = {p50("interp.launch"), "ms"};
        m["wse.run_ms"] = {runMs, "ms"};
        m["wse.events"] = {static_cast<double>(c.stats.eventsProcessed), "count"};
        m["wse.events_per_s"] = {
            runMs > 0 ? static_cast<double>(c.stats.eventsProcessed) / (runMs / 1e3) : 0.0,
            "1/s"};
        m["wse.windows"] = {static_cast<double>(c.telemetry.windows), "count"};
        m["wse.avg_window_cycles"] = {
            c.telemetry.windows ? static_cast<double>(c.telemetry.windowCycles) /
                                      static_cast<double>(c.telemetry.windows)
                                : 0.0,
            "cycles"};
        m["wse.shard_windows"] = {static_cast<double>(c.telemetry.shardWindowsRun), "count"};
        m["wse.steals"] = {static_cast<double>(c.telemetry.steals), "count"};
        m["wse.outbox_reallocs"] = {static_cast<double>(c.telemetry.outboxReallocs), "count"};
        m["wse.pe_busy_frac"] = {c.interiorBusyFrac, "ratio"};
        m["wse.fabric_hops"] = {static_cast<double>(c.fabricHops), "count"};
        m["wse.wavelets"] = {static_cast<double>(c.stats.waveletsSent), "count"};
        m["wse.flops"] = {static_cast<double>(c.stats.flops), "count"};
        m["wse.mem_bytes"] = {static_cast<double>(c.stats.memBytes), "bytes"};
        m["comms.exchanges"] = {static_cast<double>(c.exchanges), "count"};
        m["comms.chunks"] = {static_cast<double>(c.chunks), "count"};
        m["sim_cycles_per_step"] = {c.cyclesPerStep, "cycles"};
        m["codegen.csl_bytes"] = {static_cast<double>(cslBytes_), "bytes"};
        m["wse.build_ms"] = {p50("wse.build"), "ms"};
        m["wse.teardown_ms"] = {p50("wse.teardown"), "ms"};
        return m;
    }

  private:
    struct Column
    {
        size_t field;
        int x, y;
        std::vector<float> values;
    };

    bool
    runOp(Tracer *tracer)
    {
        if (tracer)
            tracer->beginOp();
        Tracer::Scope op(tracer, "bench.op");
        wse::SimOptions options;
        options.threads = kThreads;
        // Held in optionals so construction and teardown get spans too.
        std::optional<wse::Simulator> simSlot;
        std::optional<interp::CslProgramInstance> instanceSlot;
        {
            Tracer::Scope s(tracer, "wse.build");
            simSlot.emplace(wse::ArchParams::wse3(), kGrid, kGrid, options);
        }
        wse::Simulator &sim = *simSlot;
        {
            Tracer::Scope s(tracer, "interp.build");
            instanceSlot.emplace(sim, module_.get());
        }
        interp::CslProgramInstance &instance = *instanceSlot;
        setFieldInits(instance, bench_.program, init_);
        {
            Tracer::Scope s(tracer, "interp.configure");
            instance.configure();
        }
        {
            Tracer::Scope s(tracer, "interp.launch");
            instance.launch();
        }
        {
            Tracer::Scope s(tracer, "wse.run");
            sim.run(4000000000ULL);
        }
        bool ok = true;
        if (instance.unblockCount() != static_cast<uint64_t>(kGrid) * kGrid) {
            failures_.record("not every PE returned control to the host");
            ok = false;
        }
        {
            Tracer::Scope s(tracer, "interp.readback");
            for (const Column &col : expected_) {
                std::vector<float> got = instance.readFieldColumn(
                    bench_.program.fieldName(col.field), col.x, col.y);
                if (got.size() != col.values.size()) {
                    failures_.record("column length differs from the reference");
                    ok = false;
                    break;
                }
                double err = 0.0;
                for (size_t z = 0; z < got.size(); ++z)
                    err = std::max(err, std::abs(got[z] - col.values[z]) /
                                            std::max(1.0, std::abs(double(col.values[z]))));
                if (err > kTolerance) {
                    failures_.record("field column differs from ReferenceExecutor");
                    ok = false;
                    break;
                }
            }
        }
        SimCounters c = collectCounters(sim, instance, kGrid / 2, kGrid / 2);
        if (haveCounters_ && (c.cyclesPerStep != counters_.cyclesPerStep ||
                              c.stats.eventsProcessed != counters_.stats.eventsProcessed)) {
            failures_.record("simulated cycles or events differ between runs");
            ok = false;
        }
        counters_ = c;
        haveCounters_ = true;
        {
            Tracer::Scope s(tracer, "interp.teardown");
            instanceSlot.reset();
        }
        Tracer::Scope s(tracer, "wse.teardown");
        simSlot.reset();
        return ok;
    }

    fe::Benchmark bench_;
    fe::InitFn init_;
    std::vector<std::pair<int, int>> columns_;
    std::unique_ptr<ir::Context> ctx_;
    ir::OwningOp module_;
    size_t cslBytes_ = 0;
    std::vector<Column> expected_;
    SimCounters counters_;
    bool haveCounters_ = false;
};

} // namespace

std::unique_ptr<Workload>
makeWaferSim(uint64_t seed)
{
    return std::make_unique<WaferSim>(seed);
}

} // namespace wsc::e2e
