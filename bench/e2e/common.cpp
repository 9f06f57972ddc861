#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>

namespace wsc::e2e {

int64_t
wallNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

Zipf::Zipf(size_t n, double s)
{
    double sum = 0.0;
    cdf_.reserve(n);
    for (size_t k = 1; k <= n; ++k) {
        sum += 1.0 / std::pow(static_cast<double>(k), s);
        cdf_.push_back(sum);
    }
    for (double &c : cdf_)
        c /= sum;
}

size_t
Zipf::draw(Rng &rng) const
{
    double u = rng.unit();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

double
tailQuantile(size_t samples)
{
    if (samples >= 1000)
        return 0.99;
    if (samples < 20)
        return 0.5;
    // Highest q with samples * (1 - q) >= 10, on a 1% grid.
    double q = std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(samples))) /
               100.0;
    return std::max(0.5, q);
}

void
Samples::start(double windowS, size_t mix)
{
    windowS_ = windowS;
    mixSize = mix;
    startWall_ = windowWall_ = wallNs();
    startCpu_ = cpuNs();
    windowOps_ = 0;
}

void
Samples::record(double opLatencyMs, bool ok, uint64_t pass)
{
    latencyMs.push_back(opLatencyMs);
    if (mixSize)
        passOf.push_back(pass);
    ++attempted;
    failed += ok ? 0 : 1;
    ++windowOps_;
    if (static_cast<double>(wallNs() - windowWall_) >= windowS_ * 1e9)
        closeWindow();
}

void
Samples::closeWindow()
{
    if (windowOps_ == 0)
        return;
    int64_t wall = wallNs();
    windowOpsPerS.push_back(static_cast<double>(windowOps_) /
                            (static_cast<double>(wall - windowWall_) / 1e9));
    windowWall_ = wall;
    windowOps_ = 0;
}

void
Samples::finish()
{
    closeWindow();
    wallS = static_cast<double>(wallNs() - startWall_) / 1e9;
    cpuS = static_cast<double>(cpuNs() - startCpu_) / 1e9;
}

double
Samples::typicalLatencyMs() const
{
    if (!mixSize)
        return median(latencyMs);
    std::map<uint64_t, std::pair<double, size_t>> passes; // sum, count
    for (size_t i = 0; i < latencyMs.size(); ++i) {
        auto &[sum, count] = passes[passOf[i]];
        sum += latencyMs[i];
        ++count;
    }
    std::vector<double> means;
    for (const auto &[pass, sumCount] : passes)
        if (sumCount.second == mixSize)
            means.push_back(sumCount.first / static_cast<double>(mixSize));
    return median(means);
}

void
Samples::merge(const Samples &other)
{
    uint64_t passBase = passOf.empty() ? 0 : *std::max_element(passOf.begin(), passOf.end()) + 1;
    for (uint64_t pass : other.passOf)
        passOf.push_back(passBase + pass);
    mixSize = other.mixSize;
    latencyMs.insert(latencyMs.end(), other.latencyMs.begin(), other.latencyMs.end());
    attempted += other.attempted;
    failed += other.failed;
    wallS += other.wallS;
    cpuS += other.cpuS;
    windowOpsPerS.insert(windowOpsPerS.end(), other.windowOpsPerS.begin(),
                         other.windowOpsPerS.end());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace wsc::e2e
