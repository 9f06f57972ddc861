/**
 * @file
 * wsc_e2e: the end-to-end benchmark program.
 *
 *   wsc_e2e --workload <service_mix|wafer_sim|paper_sweep> --seed N
 *           --seconds S --trace <0|1> --root <checkout> --out <dir>
 *
 * Untraced (--trace 0): set-up (warm-up included) is repeated
 * kSetupReps times and its median reported as setup_s; the oracle is
 * prepared (untimed), then operations run for S seconds. Traced (--trace 1):
 * the same, but the timed phase is split into kOverheadPairs pairs of
 * short blocks, one untraced and one traced over the same inputs, the
 * side that runs first alternating (the median of the pairs' throughput
 * ratios is the tracing overhead), followed by the workload's replay of
 * the calls it cannot trace from outside. Writes <out>/<workload>-s<seed>-t<trace>.counters.json (and
 * .trace.json when traced) and prints one JSON object, every metric
 * with its unit, as the last line of standard output.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"

namespace wsc::e2e {
namespace {

constexpr int kSetupReps = 5;
constexpr int kOverheadPairs = 5;

std::string g_root = ".";

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out = ".";
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        std::string value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::stoull(value);
        else if (key == "--seconds")
            args.seconds = std::stod(value);
        else if (key == "--trace")
            args.trace = value == "1";
        else if (key == "--root")
            g_root = value;
        else if (key == "--out")
            args.out = value;
        else
            return false;
    }
    return !args.workload.empty() && args.seconds > 0;
}

/** A fixed spin loop, so runs can be compared with the cores they had. */
double
spinOnce()
{
    volatile uint64_t sink = 0;
    uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 20000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    sink = x;
    return static_cast<double>(sink & 1);
}

struct ProbeResult
{
    double wallS = 0.0;
    double cpuS = 0.0;
};

ProbeResult
probe(int threads)
{
    int64_t w0 = wallNs();
    int64_t c0 = cpuNs();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(spinOnce);
    for (std::thread &t : pool)
        t.join();
    return {static_cast<double>(wallNs() - w0) / 1e9,
            static_cast<double>(cpuNs() - c0) / 1e9};
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
jsonMetrics(const MetricTable &table)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, metric] : table) {
        out += (first ? "" : ", ") + jsonString(name) + ": {\"value\": " +
               jsonNumber(metric.value) + ", \"unit\": " +
               jsonString(metric.unit) + "}";
        first = false;
    }
    return out + "}";
}

void
addEndToEnd(MetricTable &m, const Samples &s, double setupS)
{
    double tailQ = tailQuantile(s.latencyMs.size());
    // Timed operations only (paper_sweep's golden checks run untimed).
    uint64_t done = s.latencyMs.size();
    m["ops_per_s"] = {static_cast<double>(done) / s.wallS, "1/s"};
    m["op_p50_ms"] = {s.typicalLatencyMs(), "ms"};
    m["op_tail_ms"] = {quantile(s.latencyMs, tailQ), "ms"};
    m["cpu_s_per_op"] = {s.cpuS / static_cast<double>(std::max<uint64_t>(done, 1)), "s"};
    m["setup_s"] = {setupS, "s"};
    m["peak_rss_mb"] = {peakRssMb(), "MB"};
    m["op_error_ratio"] = {static_cast<double>(s.failed) /
                               static_cast<double>(std::max<uint64_t>(s.attempted, 1)),
                           "ratio"};
    m["op_tail_quantile"] = {tailQ, "ratio"};
    m["op_samples"] = {static_cast<double>(s.latencyMs.size()), "count"};
}

int
run(const Args &args)
{
    std::unique_ptr<Workload> workload;
    if (args.workload == "service_mix")
        workload = makeServiceMix(args.seed);
    else if (args.workload == "wafer_sim")
        workload = makeWaferSim(args.seed);
    else if (args.workload == "paper_sweep")
        workload = makePaperSweep(args.seed);
    else {
        std::cerr << "unknown workload '" << args.workload << "'\n";
        return 2;
    }
    if (readFile(goldenDir() + "/cycle_counts.txt").empty()) {
        std::cerr << "golden files not found under " << goldenDir() << "\n";
        return 2;
    }

    ProbeResult p1 = probe(1);
    ProbeResult p4 = probe(4);

    Tracer tracer;
    Tracer *traced = args.trace ? &tracer : nullptr;
    std::vector<double> setupS;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        int64_t t0 = wallNs();
        // Only the last repetition (the state the run keeps) is traced.
        workload->setUp(rep + 1 == kSetupReps ? traced : nullptr);
        setupS.push_back(static_cast<double>(wallNs() - t0) / 1e9);
    }
    workload->prepareOracle();

    MetricTable metrics;
    Samples all;
    std::vector<double> ratios; // traced mode: untraced / traced throughput
    if (!args.trace) {
        all = workload->measure(args.seconds, nullptr, 0);
        addEndToEnd(metrics, all, median(setupS));
    } else {
        // Interleaved blocks: the host's speed drifts over a run, so
        // each traced block is compared with an untraced block over the
        // same inputs next to it, and the order alternates.
        double blockS = args.seconds / (2.0 * kOverheadPairs);
        auto rate = [](const Samples &s) {
            return static_cast<double>(s.latencyMs.size()) / s.wallS;
        };
        for (int pair = 0; pair < kOverheadPairs; ++pair) {
            uint64_t stream = static_cast<uint64_t>(pair) + 1;
            Samples plain, withSpans;
            if (pair % 2 == 0) {
                plain = workload->measure(blockS, nullptr, stream);
                withSpans = workload->measure(blockS, &tracer, stream);
            } else {
                withSpans = workload->measure(blockS, &tracer, stream);
                plain = workload->measure(blockS, nullptr, stream);
            }
            ratios.push_back(rate(plain) / rate(withSpans));
            all.merge(plain);
            all.merge(withSpans);
        }
        workload->replay(tracer);
        metrics = workload->layerMetrics(tracer);
        metrics["trace.overhead_pct"] = {(median(ratios) - 1.0) * 100.0, "%"};
        double ops = static_cast<double>(std::max<uint64_t>(tracer.ops(), 1));
        for (const auto &[layer, ms] : tracer.selfMsByLayer())
            metrics[layer + ".self_ms"] = {ms / ops, "ms"};
        metrics["op_error_ratio"] = {
            static_cast<double>(all.failed) /
                static_cast<double>(std::max<uint64_t>(all.attempted, 1)),
            "ratio"};
    }

    // Failures outside operations (set-up, replay) make the run incorrect
    // without being an operation; operation failures are counted in
    // `all.failed` and also listed here by cause.
    uint64_t recorded = 0;
    for (const auto &[reason, n] : workload->failures().byReason())
        recorded += n;
    bool correct = recorded == 0 && all.failed == 0;

    std::string stem = args.out + "/" + args.workload + "-s" +
                       std::to_string(args.seed) + "-t" + (args.trace ? "1" : "0");
    if (args.trace && !tracer.writeChromeTrace(stem + ".trace.json"))
        std::cerr << "cannot write " << stem << ".trace.json\n";

    std::ostringstream counters;
    counters << "{\"workload\": " << jsonString(args.workload)
             << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
             << ",\n \"host_probe\": {\"spin_1t_wall_s\": " << jsonNumber(p1.wallS)
             << ", \"spin_1t_cpu_s\": " << jsonNumber(p1.cpuS)
             << ", \"spin_4t_wall_s\": " << jsonNumber(p4.wallS)
             << ", \"spin_4t_cpu_s\": " << jsonNumber(p4.cpuS)
             << ", \"effective_cores\": " << jsonNumber(4.0 * p1.wallS / p4.wallS)
             << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
             << "},\n \"setup_reps_s\": [";
    for (size_t i = 0; i < setupS.size(); ++i)
        counters << (i ? ", " : "") << jsonNumber(setupS[i]);
    counters << "],\n \"overhead_pair_ratios\": [";
    for (size_t i = 0; i < ratios.size(); ++i)
        counters << (i ? ", " : "") << jsonNumber(ratios[i]);
    counters << "],\n \"window_ops_per_s\": [";
    for (size_t i = 0; i < all.windowOpsPerS.size(); ++i)
        counters << (i ? ", " : "") << jsonNumber(all.windowOpsPerS[i]);
    counters << "],\n \"failures\": {";
    bool first = true;
    for (const auto &[reason, n] : workload->failures().byReason()) {
        counters << (first ? "" : ", ") << jsonString(reason) << ": " << n;
        first = false;
    }
    counters << "},\n \"deterministic\": " << jsonMetrics(workload->deterministic())
             << ",\n \"metrics\": " << jsonMetrics(metrics) << "}\n";
    std::ofstream(stem + ".counters.json") << counters.str();

    for (const auto &[reason, n] : workload->failures().byReason())
        std::cerr << "failure x" << n << ": " << reason << "\n";
    std::cerr << "host probe: spin 1 thread " << p1.wallS << " s wall, 4 threads "
              << p4.wallS << " s wall / " << p4.cpuS << " s cpu\n";

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << all.attempted
              << ", \"failed\": " << all.failed
              << ", \"metrics\": " << jsonMetrics(metrics) << "}" << std::endl;
    return 0;
}

} // namespace

std::string
goldenDir()
{
    return g_root + "/tests/golden";
}

} // namespace wsc::e2e

int
main(int argc, char **argv)
{
    wsc::e2e::Args args;
    if (!wsc::e2e::parseArgs(argc, argv, args)) {
        std::cerr << "usage: wsc_e2e --workload W --seed N --seconds S "
                     "--trace 0|1 --root DIR --out DIR\n";
        return 2;
    }
    try {
        return wsc::e2e::run(args);
    } catch (const std::exception &e) {
        std::cerr << "wsc_e2e: " << e.what() << "\n";
        return 1;
    }
}
