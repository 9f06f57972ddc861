#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common.h"

namespace wsc::e2e {

Tracer::ThreadState &
Tracer::local()
{
    ThreadState &state = threads_[std::this_thread::get_id()];
    if (state.index == 0)
        state.index = static_cast<uint32_t>(threads_.size());
    return state;
}

void
Tracer::beginOp()
{
    std::lock_guard<std::mutex> lock(mutex_);
    local().op = ++ops_;
}

uint32_t
Tracer::begin(std::string name)
{
    int64_t now = wallNs();
    std::lock_guard<std::mutex> lock(mutex_);
    ThreadState &state = local();
    uint32_t id = addLocked(std::move(name), now, 0,
                            state.stack.empty() ? 0 : state.stack.back());
    state.stack.push_back(id);
    return id;
}

void
Tracer::end(uint32_t id)
{
    int64_t now = wallNs();
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<uint32_t> &stack = local().stack;
    if (!stack.empty() && stack.back() == id)
        stack.pop_back();
    spans_[id - 1].endNs = now;
}

uint32_t
Tracer::add(std::string name, int64_t startNs, int64_t endNs,
            uint32_t parent)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return addLocked(std::move(name), startNs, endNs, parent);
}

uint32_t
Tracer::addLocked(std::string name, int64_t startNs, int64_t endNs,
                  uint32_t parent)
{
    const ThreadState &state = local();
    Span span;
    span.name = std::move(name);
    span.id = static_cast<uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.op = state.op;
    span.thread = state.index;
    span.startNs = startNs;
    span.endNs = endNs;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

std::vector<double>
Tracer::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(static_cast<double>(s.endNs - s.startNs) / 1e6);
    return out;
}

std::map<std::string, double>
Tracer::selfMsByLayer() const
{
    // Children of one span never overlap (a span's children are
    // recorded by its own thread, one after another, and reconstructed
    // service spans split their parent's interval), so
    // covered time is the sum of the children's durations.
    std::vector<int64_t> childNs(spans_.size() + 1, 0);
    for (const Span &s : spans_)
        if (s.parent != 0)
            childNs[s.parent] += s.endNs - s.startNs;
    std::map<std::string, double> self;
    for (const Span &s : spans_) {
        std::string layer = s.name.substr(0, s.name.find('.'));
        int64_t own = s.endNs - s.startNs - childNs[s.id];
        self[layer] += static_cast<double>(own > 0 ? own : 0) / 1e6;
    }
    return self;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
    for (const Span &s : spans_)
        origin = std::min(origin, s.startNs);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[128];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::string layer = s.name.substr(0, s.name.find('.'));
        std::snprintf(buf, sizeof(buf),
                      "\"ts\":%.3f,\"dur\":%.3f,",
                      static_cast<double>(s.startNs - origin) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3);
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"cat\":\"" << layer << "\",\"ph\":\"X\"," << buf
            << "\"pid\":1,\"tid\":" << s.thread << ",\"args\":{\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace wsc::e2e
