/**
 * @file
 * The benchmark's calls into the library's layers, each wrapped in a
 * span when a tracer is given: frontend emission, the pipeline (one
 * child span per pass), CSL emission, and the interpreter/simulator
 * sequence configure -> launch -> run. Also the counters read back
 * from a finished simulation.
 */

#ifndef WSC_BENCH_E2E_LAYERS_H
#define WSC_BENCH_E2E_LAYERS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "frontends/benchmarks.h"
#include "interp/csl_interpreter.h"
#include "ir/context.h"
#include "transforms/pipeline.h"
#include "trace.h"
#include "wse/simulator.h"

namespace wsc::e2e {

/**
 * transforms::runPipeline, or — when traced — the identical
 * buildPipeline() run with an after-pass hook that records one
 * "transforms.pass.<name>" span per pass (the pass plus the verifier
 * run that follows it) under a "transforms.pipeline" span.
 */
ir::PipelineResult runPipelineTraced(ir::Operation *module,
                                     const transforms::PipelineOptions &options,
                                     Tracer *tracer);

/**
 * Median span times of the compile layers: frontends.emit_ms,
 * transforms.pipeline_ms, transforms.pass.<name>_ms for every pass of
 * the default pipeline, and codegen.emit_ms.
 */
MetricTable compileLayerMetrics(const Tracer &tracer);

/** Set every field's initial condition from `init`. */
void setFieldInits(interp::CslProgramInstance &instance,
                   const fe::Program &program, const fe::InitFn &init);

/** Counters of one finished simulation. */
struct SimCounters
{
    wse::SimStats stats;
    wse::ShardingTelemetry telemetry;
    uint64_t fabricHops = 0;
    wse::Cycles finalCycle = 0;
    /** Busy cycles of the sampled interior PE over the final cycle. */
    double interiorBusyFrac = 0.0;
    uint64_t exchanges = 0;
    uint64_t chunks = 0;
    /** Mean cycles per step on the sampled interior PE (stepMarks). */
    double cyclesPerStep = 0.0;
};

/**
 * Read the counters after a run; (cx, cy) is the interior PE sampled
 * for busy fraction and step marks.
 */
SimCounters collectCounters(wse::Simulator &sim,
                            interp::CslProgramInstance &instance, int cx,
                            int cy);

/** Largest x/y stencil radius over the program's updates. */
int xyRadius(const fe::Program &program);

} // namespace wsc::e2e

#endif // WSC_BENCH_E2E_LAYERS_H
