#include "obs/trace.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "common/env.hh"
#include "common/log.hh"

namespace amnt::obs
{

namespace
{

constexpr const char *kClassNames[kEventClassCount] = {
    "op",           "persist",     "mcache_hit",   "mcache_miss",
    "mcache_evict", "bmt_walk",    "subtree_move", "root_adapt",
    "crypto_batch", "crash",       "recovery",
};

const char *
phaseString(EventPhase ph)
{
    switch (ph) {
      case EventPhase::Instant: return "i";
      case EventPhase::Begin: return "B";
      case EventPhase::End: return "E";
      case EventPhase::Complete: return "X";
    }
    return "i";
}

void
appendEvent(std::string &out, const TraceEvent &e, unsigned tid)
{
    char buf[256];
    const char *name = eventClassName(e.cls);
    int n = std::snprintf(
        buf, sizeof(buf),
        "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%s\", "
        "\"ts\": %llu, \"pid\": 0, \"tid\": %u",
        name, name, phaseString(e.ph),
        static_cast<unsigned long long>(e.ts), tid);
    out.append(buf, static_cast<std::size_t>(n));
    if (e.ph == EventPhase::Complete) {
        n = std::snprintf(buf, sizeof(buf), ", \"dur\": %llu",
                          static_cast<unsigned long long>(e.dur));
        out.append(buf, static_cast<std::size_t>(n));
    }
    if (e.ph == EventPhase::Instant)
        out += ", \"s\": \"t\"";
    if (e.ph != EventPhase::End) {
        n = std::snprintf(buf, sizeof(buf),
                          ", \"args\": {\"a0\": %llu, \"a1\": %llu}",
                          static_cast<unsigned long long>(e.a0),
                          static_cast<unsigned long long>(e.a1));
        out.append(buf, static_cast<std::size_t>(n));
    }
    out += "}";
}

} // namespace

const char *
eventClassName(EventClass c)
{
    const auto i = static_cast<std::size_t>(c);
    return i < kEventClassCount ? kClassNames[i] : "?";
}

TraceBuffer::TraceBuffer(std::size_t cap) : cap_(cap == 0 ? 1 : cap) {}

// ------------------------------------------------------------ TraceJobScope

namespace
{

thread_local TraceJobScope *currentScope = nullptr; ///< innermost job
std::atomic<std::uint64_t> topLevelSeq{0};

} // namespace

TraceKey
TraceJobScope::nextKey()
{
    TraceJobScope *scope = currentScope;
    if (scope == nullptr)
        return {topLevelSeq.fetch_add(1, std::memory_order_relaxed)};
    TraceKey key = scope->prefix_;
    key.push_back(scope->next_++);
    return key;
}

TraceJobScope::TraceJobScope(TraceKey batch, std::uint64_t job)
    : outer_(currentScope), prefix_(std::move(batch))
{
    prefix_.push_back(job);
    currentScope = this;
}

TraceJobScope::~TraceJobScope()
{
    currentScope = outer_;
}

// ------------------------------------------------------------- TraceSession

struct TraceSession::Impl
{
    mutable std::mutex mu;
    bool enabled = false;
    std::string path;
    std::size_t cap = 65536;

    struct Keyed
    {
        TraceKey key;
        std::shared_ptr<TraceBuffer> buf;
    };
    std::vector<Keyed> buffers;
};

TraceSession::TraceSession() : impl_(std::make_unique<Impl>())
{
    readEnv();
}

void
TraceSession::readEnv()
{
    const char *path = std::getenv("AMNT_TRACE");
    impl_->enabled = path != nullptr && path[0] != '\0';
    impl_->path = impl_->enabled ? path : "";
    impl_->cap = static_cast<std::size_t>(envU64("AMNT_TRACE_CAP", 65536));
    if (impl_->cap == 0)
        impl_->cap = 1;
}

TraceSession &
TraceSession::global()
{
    static TraceSession session;
    static const int registered = [] {
        std::atexit([] {
            TraceSession &s = global();
            if (s.enabled())
                s.exportNow();
        });
        return 0;
    }();
    (void)registered;
    return session;
}

bool
TraceSession::enabled() const
{
    return impl_->enabled;
}

std::size_t
TraceSession::cap() const
{
    return impl_->cap;
}

std::shared_ptr<TraceBuffer>
TraceSession::openBuffer()
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (!impl_->enabled)
        return nullptr;
    auto buf = std::make_shared<TraceBuffer>(impl_->cap);
    impl_->buffers.push_back({TraceJobScope::nextKey(), buf});
    return buf;
}

std::string
TraceSession::exportJson() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto &buffers = impl_->buffers;
    std::sort(buffers.begin(), buffers.end(),
              [](const Impl::Keyed &a, const Impl::Keyed &b) {
                  return a.key < b.key;
              });
    std::string out = "{\"traceEvents\": [\n";
    bool first = true;
    std::uint64_t dropped = 0;
    for (unsigned tid = 0; tid < buffers.size(); ++tid) {
        const TraceBuffer *buf = buffers[tid].buf.get();
        dropped += buf->overwritten();
        // Repair the span structure this buffer lost to ring
        // overwrite: orphaned End events (their Begin was evicted)
        // are dropped, and Begins still open at the end of the
        // buffer get a synthetic End at the last timestamp.
        std::vector<EventClass> open;
        std::uint64_t last_ts = 0;
        buf->forEach([&](const TraceEvent &e) {
            last_ts = e.ts;
            if (e.ph == EventPhase::End) {
                if (open.empty())
                    return; // orphan from overwrite
                open.pop_back();
            } else if (e.ph == EventPhase::Begin) {
                open.push_back(e.cls);
            }
            out += first ? "  " : ",\n  ";
            first = false;
            appendEvent(out, e, tid);
        });
        while (!open.empty()) {
            TraceEvent close;
            close.ts = last_ts;
            close.cls = open.back();
            close.ph = EventPhase::End;
            open.pop_back();
            out += first ? "  " : ",\n  ";
            first = false;
            appendEvent(out, close, tid);
        }
    }
    out += "\n], \"displayTimeUnit\": \"ns\", \"otherData\": "
           "{\"tick_domain\": \"engine cycles\", \"dropped_events\": " +
           std::to_string(dropped) + "}}\n";
    return out;
}

void
TraceSession::exportNow() const
{
    const std::string text = exportJson();
    std::FILE *f = std::fopen(impl_->path.c_str(), "w");
    if (f == nullptr)
        fatal("AMNT_TRACE: cannot write %s", impl_->path.c_str());
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

void
TraceSession::reconfigure()
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->buffers.clear();
    readEnv();
}

// ------------------------------------------------------------------ Tracer

Tracer::Tracer()
{
    buf_ = TraceSession::global().openBuffer();
    on_ = buf_ != nullptr;
}

bool
hostTimingEnabled()
{
    static const bool on = envU64("AMNT_OBS_TIMING", 0) != 0;
    return on;
}

} // namespace amnt::obs
