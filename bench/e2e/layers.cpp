#include "layers.h"

#include <algorithm>

namespace wsc::e2e {

ir::PipelineResult
runPipelineTraced(ir::Operation *module,
                  const transforms::PipelineOptions &options, Tracer *tracer)
{
    if (!tracer)
        return transforms::runPipeline(module, options);

    Tracer::Scope pipeline(tracer, "transforms.pipeline");
    ir::PassManager pm = transforms::buildPipeline(options);
    int64_t passStart = wallNs();
    pm.setAfterPassHook([&](const ir::Pass &pass, ir::Operation *) {
        int64_t now = wallNs();
        tracer->add("transforms.pass." + pass.name(), passStart, now,
                    pipeline.id());
        passStart = now;
    });
    ir::PipelineResult result = pm.run(module);
    if (!result.succeeded) // the hook does not run for the failing pass
        tracer->add("transforms.pass." + result.failedPass, passStart,
                    wallNs(), pipeline.id());
    return result;
}

MetricTable
compileLayerMetrics(const Tracer &tracer)
{
    auto p50 = [&](const std::string &span) { return median(tracer.durationsMs(span)); };
    MetricTable m;
    m["frontends.emit_ms"] = {p50("frontends.emit"), "ms"};
    m["transforms.pipeline_ms"] = {p50("transforms.pipeline"), "ms"};
    ir::PassManager pm = transforms::buildPipeline();
    for (size_t i = 0; i < pm.size(); ++i) {
        const std::string &pass = pm.pass(i).name();
        m["transforms.pass." + pass + "_ms"] = {p50("transforms.pass." + pass), "ms"};
    }
    m["codegen.emit_ms"] = {p50("codegen.emit"), "ms"};
    return m;
}

void
setFieldInits(interp::CslProgramInstance &instance,
              const fe::Program &program, const fe::InitFn &init)
{
    for (size_t f = 0; f < program.numFields(); ++f) {
        int fi = static_cast<int>(f);
        instance.setFieldInit(program.fieldName(f),
                              [init, fi](int x, int y, int z) {
                                  return init(fi, x, y, z);
                              });
    }
}

SimCounters
collectCounters(wse::Simulator &sim, interp::CslProgramInstance &instance,
                int cx, int cy)
{
    SimCounters c;
    c.stats = sim.stats();
    c.telemetry = sim.telemetry();
    c.fabricHops = sim.fabricHops();
    c.finalCycle = sim.now();
    if (c.finalCycle > 0)
        c.interiorBusyFrac = static_cast<double>(sim.pe(cx, cy).busyCycles()) /
                             static_cast<double>(c.finalCycle);
    for (const auto &site : instance.commSites()) {
        const comms::StarCommStats &s = site->stats();
        c.exchanges += s.exchangesStarted;
        c.chunks += s.chunksDelivered;
    }
    const std::vector<wse::Cycles> &marks = instance.stepMarks(cx, cy);
    if (marks.size() >= 2)
        c.cyclesPerStep = static_cast<double>(marks.back() - marks.front()) /
                          static_cast<double>(marks.size() - 1);
    return c;
}

int
xyRadius(const fe::Program &program)
{
    int r = 1;
    for (size_t f = 0; f < program.numFields(); ++f) {
        if (!program.update(f))
            continue;
        int rx = 0;
        int ry = 0;
        int rz = 0;
        program.update(f)->radius(rx, ry, rz);
        r = std::max({r, rx, ry});
    }
    return r;
}

} // namespace wsc::e2e
