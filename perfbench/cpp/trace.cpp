#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <ostream>

#include "core/preprocess.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

std::atomic<bool> g_on{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint32_t> g_next_thread{1};
std::mutex g_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_mu

thread_local std::vector<uint64_t> t_stack;
thread_local uint32_t t_thread = 0;

} // namespace

void
setTracing(bool on)
{
    g_on.store(on, std::memory_order_relaxed);
}

void
clearSpans()
{
    std::lock_guard<std::mutex> lock(g_mu);
    g_spans.clear();
}

std::vector<SpanRecord>
spans()
{
    std::lock_guard<std::mutex> lock(g_mu);
    return g_spans;
}

Span::Span(const char* name, std::string tag, uint64_t request)
    : on_(g_on.load(std::memory_order_relaxed))
{
    if (!on_)
        return;
    if (t_thread == 0)
        t_thread = g_next_thread.fetch_add(1);
    rec_.id = g_next_id.fetch_add(1);
    rec_.parent = t_stack.empty() ? 0 : t_stack.back();
    rec_.request = request;
    rec_.thread = t_thread;
    rec_.name = name;
    rec_.tag = std::move(tag);
    t_stack.push_back(rec_.id);
    rec_.t0 = hottiles::monotonicSeconds();
}

Span::~Span()
{
    if (!on_)
        return;
    rec_.t1 = hottiles::monotonicSeconds();
    t_stack.pop_back();
    std::lock_guard<std::mutex> lock(g_mu);
    g_spans.push_back(std::move(rec_));
}

std::vector<double>
selfSeconds(const std::vector<SpanRecord>& all)
{
    std::map<uint64_t, size_t> index;
    for (size_t i = 0; i < all.size(); ++i)
        index[all[i].id] = i;
    std::vector<double> self(all.size());
    for (size_t i = 0; i < all.size(); ++i)
        self[i] = all[i].t1 - all[i].t0;
    for (const SpanRecord& s : all) {
        auto it = index.find(s.parent);
        if (it != index.end())
            self[it->second] -= s.t1 - s.t0;
    }
    return self;
}

double
medianSelfMs(const std::vector<SpanRecord>& all,
             const std::vector<double>& self, const std::string& name,
             const std::string& tag)
{
    std::vector<double> ms;
    for (size_t i = 0; i < all.size(); ++i)
        if (all[i].name == name && (tag == "*" || all[i].tag == tag))
            ms.push_back(self[i] * 1e3);
    return median(std::move(ms));
}

void
writeChromeTrace(std::ostream& out, const std::vector<SpanRecord>& all)
{
    double base = all.empty() ? 0 : all.front().t0;
    for (const SpanRecord& s : all)
        base = std::min(base, s.t0);
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < all.size(); ++i) {
        const SpanRecord& s = all[i];
        out << "  {\"name\": \"" << s.name << "\", \"cat\": \"" << s.tag
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
            << ", \"ts\": " << (s.t0 - base) * 1e6
            << ", \"dur\": " << (s.t1 - s.t0) * 1e6
            << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request << "}}"
            << (i + 1 < all.size() ? ",\n" : "\n");
    }
    out << "]}\n";
}

} // namespace perfbench
