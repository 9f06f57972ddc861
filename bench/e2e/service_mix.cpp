/**
 * @file
 * Workload `service_mix`: compile-only CompileService requests in a
 * closed loop. One generator thread keeps two requests in flight
 * against ServiceConfig::threads = 2 and takes replies in submission
 * order; an operation's latency runs from submit to the moment the
 * generator holds the reply (a reply that completes behind an older
 * one waits for it).
 *
 * Requests are drawn by seeded Zipf from a catalogue: the five paper
 * workloads at 100x100 and at the 16x16 golden sizes, each under the
 * default pipeline, each §5.7 ablation toggle off and two forced chunk
 * counts, plus seeded Fortran Jacobi sources. About 2% of requests are
 * hostile Fortran mutations. The cache holds far fewer artifacts than
 * the catalogue, so hits run beside misses, inserts and evictions.
 *
 * Oracles: golden-size default requests must byte-match the golden
 * CSL files in tests/golden; every other valid request must reproduce the
 * bytes of its first compile; hostile requests must fail in the
 * frontend with a fortran:L:C location.
 */

#include <deque>
#include <future>
#include <regex>
#include <set>

#include "codegen/csl_emitter.h"
#include "common.h"
#include "dialects/all.h"
#include "ir/pattern.h"
#include "ir/verifier.h"
#include "layers.h"
#include "service/workload_requests.h"

namespace wsc::e2e {
namespace {

constexpr int kServiceThreads = 2;
constexpr size_t kInFlight = 2;
constexpr size_t kCacheCapacity = 24;
constexpr double kZipfExponent = 1.0;
constexpr double kHostileShare = 0.02;
constexpr size_t kFortranSources = 12;
constexpr size_t kHostileSources = 10;
constexpr size_t kWarmUpOps = 400;
constexpr size_t kReplayLimit = 48;
constexpr double kWindowS = 1.0;
constexpr uint64_t kPopularitySeed = 0x5eed0001ULL;

struct Entry
{
    std::string name;
    service::CompileRequest request;
    /** Golden pe.csl + layout.csl, when this entry has a golden file. */
    std::string goldenPe;
    std::string goldenLayout;
    bool hostile = false;
    /** Hash of the CSL of the first successful compile (0 = none yet). */
    size_t firstHash = 0;
};

size_t
cslHash(const codegen::EmittedCsl &csl)
{
    return std::hash<std::string>{}(csl.programFile) * 31 +
           std::hash<std::string>{}(csl.layoutFile);
}

/** Seeded valid Fortran: a weighted 7-point Jacobi sweep. */
std::string
jacobiSource(Rng &rng, int64_t nx, int64_t ny, int64_t nz)
{
    int centre = 1 + static_cast<int>(rng.below(8));
    int neighbour = 1 + static_cast<int>(rng.below(8));
    std::string c = "0." + std::to_string(centre);
    std::string n = "0.0" + std::to_string(neighbour);
    return "do i = 2, " + std::to_string(nx - 1) + "\n do j = 2, " +
           std::to_string(ny - 1) + "\n  do k = 2, " + std::to_string(nz - 1) +
           "\n   a(k,j,i) = " + c + " * a(k,j,i) + " + n +
           " * (a(k,j,i-1) + a(k,j,i+1) + a(k,j-1,i) + a(k,j+1,i) + "
           "a(k-1,j,i) + a(k+1,j,i))\n  enddo\n enddo\nenddo\n";
}

/** Seeded hostile Fortran: one of five mutations of a valid sweep. */
std::string
hostileSource(Rng &rng, int64_t n)
{
    std::string hi = std::to_string(n - 1);
    std::string head = "do i = 2, " + hi + "\n do j = 2, " + hi +
                       "\n  do k = 2, " + hi + "\n";
    std::string tail = "  enddo\n enddo\nenddo\n";
    switch (rng.below(5)) {
    case 0:
        return head + "   a(k,j,i) = a(k,j,i-1) @ a(k,j,i+1)\n" + tail;
    case 1:
        return head + "   a(k,j,i) = a(1,j,i)\n" + tail;
    case 2:
        return "do i = 2, " + hi + "\nenddo\n";
    case 3:
        return head + "   a(k,j,i+1) = a(k,j,i)\n" + tail;
    default:
        return head + "   a(k,j,i) = a(k-1,j,i)\n";
    }
}

class ServiceMix : public Workload
{
  public:
    explicit ServiceMix(uint64_t seed) : seed_(seed)
    {
        buildCatalogue();
        // Popularity (which valid entry holds which Zipf rank) is one
        // fixed shuffle for every seed, because it sets the mix of
        // compile costs: a seed-drawn popularity made runs of different
        // seeds differ by more than the host's noise (op_p50_ms spread
        // over 5 seeds 0.15, against 0.03 with it fixed). The seed draws
        // the request sequence, the Fortran sources and the hostile
        // mutations.
        Rng rng(kPopularitySeed);
        for (size_t i = rankToEntry_.size(); i > 1; --i)
            std::swap(rankToEntry_[i - 1], rankToEntry_[rng.below(i)]);
    }

    void
    setUp(Tracer *tracer) override
    {
        (void)tracer;
        service_.reset();
        service::ServiceConfig config;
        config.threads = kServiceThreads;
        config.cacheCapacity = kCacheCapacity;
        service_ = std::make_unique<service::CompileService>(config);
        // Warm the worker contexts without touching the cache.
        std::vector<std::future<service::CompileReply>> warm;
        for (size_t idx : goldenEntries_) {
            service::CompileRequest request = catalogue_[idx].request;
            request.bypassCache = true;
            warm.push_back(service_->submit(std::move(request)));
        }
        for (auto &f : warm)
            if (!f.get().ok)
                failures_.record("set-up compile failed");
        // Fill the cache before timing. The warm-up is the same for
        // every seed (fixed draws over the seed-independent paper
        // entries, no hostile requests), so set-up time does not depend
        // on the seed; the timed phase's first requests bring in the
        // popular Fortran entries.
        runLoop(paperEntries_, 0.0, 0x3a3aULL, 0, kWarmUpOps, nullptr, nullptr);
    }

    Samples
    measure(double seconds, Tracer *tracer, uint64_t stream) override
    {
        int64_t deadline = wallNs() + static_cast<int64_t>(seconds * 1e9);
        service::ServiceStats before = service_->stats();
        Samples s = runLoop(rankToEntry_, kHostileShare, seed_ ^ (0x1111ULL * (stream + 1)),
                            deadline, 0, tracer, &replies_);
        if (tracer) {
            service::ServiceStats after = service_->stats();
            tracedEvictions_ += after.cache.evictions - before.cache.evictions;
        }
        return s;
    }

    void
    replay(Tracer &tracer) override
    {
        // The service's jobs run on its workers, out of the tracer's
        // reach: compile the distinct entries that missed directly,
        // through the same layers, to get per-layer spans.
        ir::resetPatternStats();
        ir::Context ctx;
        dialects::registerAllDialects(ctx);
        size_t replayed = 0;
        for (size_t idx : missed_) {
            if (replayed++ == kReplayLimit)
                break;
            Entry &e = catalogue_[idx];
            tracer.beginOp();
            Tracer::Scope op(&tracer, "bench.replay");
            ir::OwningOp module;
            {
                Tracer::Scope s(&tracer, "frontends.emit");
                module = e.request.build(ctx);
            }
            bool ok = static_cast<bool>(module);
            if (ok) {
                Tracer::Scope s(&tracer, "ir.verify");
                ok = ir::succeeded(ir::verify(module.get()));
            }
            ok = ok && runPipelineTraced(module.get(), e.request.options, &tracer)
                           .succeeded;
            if (ok) {
                Tracer::Scope s(&tracer, "codegen.emit");
                codegen::EmittedCsl csl = codegen::emitCsl(module.get());
                ok = cslHash(csl) == e.firstHash;
            }
            if (!ok)
                failures_.record("direct compile differs from the service's: " + e.name);
            module = ir::OwningOp();
            ctx.reset();
        }
        for (const auto &[name, stat] : ir::patternStats()) {
            patternHits_ += stat.hits;
            patternAttempts_ += stat.hits + stat.misses;
        }
    }

    MetricTable
    deterministic() const override
    {
        return {{"codegen.csl_bytes", {static_cast<double>(goldenBytes_), "bytes"}},
                {"service.catalogue", {static_cast<double>(catalogue_.size()), "count"}}};
    }

    MetricTable
    layerMetrics(const Tracer &tracer) const override
    {
        MetricTable m = compileLayerMetrics(tracer);
        m["ir.verify_ms"] = {median(tracer.durationsMs("ir.verify")), "ms"};
        m["ir.pattern_hit_ratio"] = {
            patternAttempts_ ? static_cast<double>(patternHits_) /
                                   static_cast<double>(patternAttempts_)
                             : 0.0,
            "ratio"};
        m["codegen.csl_bytes"] = {static_cast<double>(goldenBytes_), "bytes"};

        std::vector<double> queue, work, hit, miss;
        for (const ReplyTiming &r : replies_) {
            queue.push_back(r.queueMs);
            work.push_back(r.workMs);
            (r.hit ? hit : miss).push_back(r.latencyMs);
        }
        m["service.queue_ms_p50"] = {median(queue), "ms"};
        m["service.work_ms_p50"] = {median(work), "ms"};
        m["service.hit_ratio"] = {
            replies_.empty() ? 0.0
                             : static_cast<double>(hit.size()) /
                                   static_cast<double>(replies_.size()),
            "ratio"};
        m["service.hit_ms_p50"] = {median(hit), "ms"};
        m["service.miss_ms_p50"] = {median(miss), "ms"};
        m["service.evictions"] = {static_cast<double>(tracedEvictions_), "count"};
        return m;
    }

  private:
    struct ReplyTiming
    {
        bool hit = false;
        double latencyMs = 0.0;
        double queueMs = 0.0;
        double workMs = 0.0;
    };

    void
    buildCatalogue()
    {
        struct Golden
        {
            const char *file;
            fe::Benchmark (*make)(int64_t n);
        };
        // The golden sizes of tests/golden/test_golden_csl.cpp.
        const Golden golden[] = {
            {"jacobian", [](int64_t n) { return fe::makeJacobian(n, n, 8, 24); }},
            {"diffusion", [](int64_t n) { return fe::makeDiffusion(n, n, 8, 16); }},
            {"acoustic", [](int64_t n) { return fe::makeAcoustic(n, n, 8, 24); }},
            {"seismic", [](int64_t n) { return fe::makeSeismic(n, n, 8, 20); }},
            {"uvkbe", [](int64_t n) { return fe::makeUvkbe(n, n, 24); }},
        };
        std::vector<std::pair<std::string, transforms::PipelineOptions>> variants;
        variants.push_back({"default", {}});
        auto toggled = [&](const char *name, bool transforms::PipelineOptions::*flag) {
            transforms::PipelineOptions o;
            o.*flag = false;
            variants.push_back({name, o});
        };
        toggled("no-inlining", &transforms::PipelineOptions::enableStencilInlining);
        toggled("no-varith-fusion", &transforms::PipelineOptions::enableVarithFusion);
        toggled("no-coeff-promotion", &transforms::PipelineOptions::enableCoeffPromotion);
        toggled("no-one-shot", &transforms::PipelineOptions::enableOneShotReduction);
        toggled("no-fmac", &transforms::PipelineOptions::enableFmacFusion);
        for (int64_t chunks : {2, 3}) {
            transforms::PipelineOptions o;
            o.forceNumChunks = chunks;
            variants.push_back({"chunks-" + std::to_string(chunks), o});
        }

        for (const Golden &g : golden) {
            for (int64_t n : {int64_t{16}, int64_t{100}}) {
                fe::Benchmark bench = g.make(n);
                for (const auto &[variant, options] : variants) {
                    Entry e;
                    e.name = std::string(g.file) + "-" + std::to_string(n) + "-" + variant;
                    e.request = service::benchmarkRequest(bench);
                    e.request.options = options;
                    if (n == 16 && variant == "default") {
                        e.goldenPe = readFile(goldenDir() + "/" + g.file + "_pe.csl");
                        e.goldenLayout = readFile(goldenDir() + "/" + g.file + "_layout.csl");
                        if (e.goldenPe.empty() || e.goldenLayout.empty())
                            failures_.record("missing golden CSL for " + e.name);
                        goldenBytes_ += e.goldenPe.size() + e.goldenLayout.size();
                        goldenEntries_.push_back(catalogue_.size());
                    }
                    paperEntries_.push_back(catalogue_.size());
                    catalogue_.push_back(std::move(e));
                }
            }
        }
        rankToEntry_ = paperEntries_;

        Rng rng(seed_);
        const int64_t sizes[] = {12, 16, 24};
        for (size_t i = 0; i < kFortranSources; ++i) {
            int64_t n = sizes[rng.below(3)];
            int64_t nz = 24 + 8 * static_cast<int64_t>(rng.below(2));
            Entry e;
            e.name = "fortran-jacobi-" + std::to_string(i);
            e.request = service::fortranRequest(
                e.name, jacobiSource(rng, n, n, nz), fe::FortranKernelConfig{n, n, nz, 2});
            rankToEntry_.push_back(catalogue_.size());
            catalogue_.push_back(std::move(e));
        }
        for (size_t i = 0; i < kHostileSources; ++i) {
            int64_t n = sizes[rng.below(3)];
            Entry e;
            e.name = "fortran-hostile-" + std::to_string(i);
            e.request = service::fortranRequest(e.name, hostileSource(rng, n),
                                                fe::FortranKernelConfig{n, n, 32, 2});
            e.hostile = true;
            hostile_.push_back(catalogue_.size());
            catalogue_.push_back(std::move(e));
        }
    }

    /** Zipf rank -> entry through `ranks`, or a hostile entry. */
    size_t
    draw(Rng &rng, const Zipf &zipf, const std::vector<size_t> &ranks,
         double hostileShare) const
    {
        if (rng.unit() < hostileShare)
            return hostile_[rng.below(hostile_.size())];
        return ranks[zipf.draw(rng)];
    }

    /** Check one reply against the entry's oracle; records the cause. */
    bool
    check(Entry &e, const service::CompileReply &reply)
    {
        if (e.hostile) {
            static const std::regex location("^fortran:[0-9]+:[0-9]+");
            const ir::Diagnostic *err = reply.pipeline.firstError();
            if (reply.ok) {
                failures_.record("hostile request accepted");
                return false;
            }
            if (reply.pipeline.failedPass != "frontend" || !err ||
                !std::regex_search(err->location, location)) {
                failures_.record("hostile request failed without a fortran:L:C "
                                 "frontend diagnostic");
                return false;
            }
            return true;
        }
        if (!reply.ok || !reply.artifact) {
            failures_.record("valid request failed: " + e.name + ": " + reply.error);
            return false;
        }
        const codegen::EmittedCsl &csl = reply.artifact->csl;
        if (!e.goldenPe.empty() &&
            (csl.programFile != e.goldenPe || csl.layoutFile != e.goldenLayout)) {
            failures_.record("CSL differs from tests/golden: " + e.name);
            return false;
        }
        size_t h = cslHash(csl);
        if (e.firstHash == 0)
            e.firstHash = h;
        else if (h != e.firstHash) {
            failures_.record("CSL differs from the entry's first compile: " + e.name);
            return false;
        }
        return true;
    }

    /**
     * The closed loop: keep kInFlight requests outstanding until the
     * deadline (or `maxOps` submissions), then drain. Requests are drawn
     * by Zipf over `ranks` (rank -> entry) plus `hostileShare` hostile
     * ones. Replies are taken in submission order.
     */
    Samples
    runLoop(const std::vector<size_t> &ranks, double hostileShare, uint64_t seed,
            int64_t deadline, size_t maxOps, Tracer *tracer,
            std::vector<ReplyTiming> *timings)
    {
        struct Pending
        {
            std::future<service::CompileReply> reply;
            size_t entry;
            int64_t submitNs;
        };
        Rng rng(seed);
        Zipf zipf(ranks.size(), kZipfExponent);
        std::deque<Pending> inflight;
        Samples s;
        s.start(kWindowS);
        size_t submitted = 0;
        auto more = [&] {
            return maxOps ? submitted < maxOps : wallNs() < deadline;
        };
        while (true) {
            while (inflight.size() < kInFlight && more()) {
                size_t idx = draw(rng, zipf, ranks, hostileShare);
                int64_t now = wallNs();
                inflight.push_back(
                    {service_->submit(catalogue_[idx].request), idx, now});
                ++submitted;
            }
            if (inflight.empty())
                break;
            Pending p = std::move(inflight.front());
            inflight.pop_front();
            service::CompileReply reply = p.reply.get();
            int64_t done = wallNs();
            Entry &e = catalogue_[p.entry];
            bool ok = check(e, reply);
            double latencyMs = static_cast<double>(done - p.submitNs) / 1e6;
            s.record(latencyMs, ok);
            if (ok && !e.hostile && !reply.cacheHit && missedSet_.insert(p.entry).second)
                missed_.push_back(p.entry);
            if (timings && !e.hostile)
                timings->push_back({reply.cacheHit, latencyMs,
                                    reply.queueMicros / 1e3, reply.workMicros / 1e3});
            if (tracer) {
                // Reconstructed from the reply: queue, then work.
                tracer->beginOp();
                uint32_t root = tracer->add("bench.op", p.submitNs, done, 0);
                int64_t queueEnd = p.submitNs + static_cast<int64_t>(reply.queueMicros * 1e3);
                tracer->add("service.queue", p.submitNs, queueEnd, root);
                tracer->add("service.work", queueEnd,
                            std::min(done, queueEnd + static_cast<int64_t>(reply.workMicros * 1e3)),
                            root);
            }
        }
        s.finish();
        return s;
    }

    uint64_t seed_;
    std::vector<Entry> catalogue_;
    std::vector<size_t> hostile_;
    std::vector<size_t> goldenEntries_;
    /** The five paper workloads' entries, in catalogue order. */
    std::vector<size_t> paperEntries_;
    /** Zipf rank -> valid entry, one fixed shuffle. */
    std::vector<size_t> rankToEntry_;
    size_t goldenBytes_ = 0;
    std::unique_ptr<service::CompileService> service_;
    std::vector<ReplyTiming> replies_;
    std::vector<size_t> missed_;
    std::set<size_t> missedSet_;
    uint64_t tracedEvictions_ = 0;
    uint64_t patternHits_ = 0;
    uint64_t patternAttempts_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeServiceMix(uint64_t seed)
{
    return std::make_unique<ServiceMix>(seed);
}

} // namespace wsc::e2e
