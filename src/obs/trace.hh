/**
 * @file
 * Structured event tracing for the MEE/sim pipeline.
 *
 * Every secure-memory engine owns a Tracer: a lock-free, single-writer
 * ring buffer of typed events (persist ops, BMT walks, metadata-cache
 * hits/misses/evictions, subtree movements, crash/recovery phases,
 * crypto batch flushes), each stamped with the engine's simulated tick.
 * Buffers register with the process-wide TraceSession, which merges
 * them into one Chrome trace_event JSON document (chrome://tracing /
 * Perfetto compatible) at exit or on demand.
 * Tracks ("tid") are numbered in TraceJobScope key order, so a sweep
 * exports the same document at any worker count.
 *
 * Tick domain: each engine carries its own monotonic cycle clock,
 * advanced by the critical-path latency of every read()/write() it
 * services. All events emitted while servicing one operation share the
 * operation's start tick, so `ts` is nondecreasing per engine track by
 * construction (DESIGN.md §11).
 *
 * Zero-cost rule: tracing is enabled by setting AMNT_TRACE=<file>
 * (AMNT_TRACE_CAP bounds events per engine, default 65536). When the
 * variable is unset every hook reduces to one branch on a cached bool
 * (`Tracer::on()`); no event is constructed, no clock is advanced, and
 * all simulated numbers — including the golden-pinned figures — are
 * byte-identical with tracing on or off (tracing only ever records).
 *
 * Ring semantics: when a buffer exceeds its cap the oldest events are
 * overwritten (keep-latest) and counted; export repairs the B/E
 * structure by dropping orphaned ends and synthesizing ends for
 * still-open begins, so exported traces always validate.
 */

#ifndef AMNT_OBS_TRACE_HH
#define AMNT_OBS_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace amnt::obs
{

/** The event taxonomy (DESIGN.md §11). Order matches names below. */
enum class EventClass : std::uint8_t
{
    Op,          ///< one data read/write through the engine (complete)
    Persist,     ///< a metadata block persisted to NVM (a1=1: shadow)
    McacheHit,   ///< metadata cache hit
    McacheMiss,  ///< metadata cache miss (fetch + verify)
    McacheEvict, ///< metadata line displaced (a1 = dirty)
    BmtWalk,     ///< counter trust-chain walk that fetched blocks
    SubtreeMove, ///< AMNT fast-subtree retarget (begin/end span)
    RootAdapt,   ///< BMF root-set prune (a0=0) / merge (a0=1)
    CryptoBatch, ///< one batched MAC/pad burst (a0 = batch size)
    Crash,       ///< power failure (instant)
    Recovery,    ///< recovery procedure (begin/end span)
};

/** Number of event classes (bounds for tables and tests). */
constexpr std::size_t kEventClassCount = 11;

/** Stable lower-case name of an event class ("mcache_hit", ...). */
const char *eventClassName(EventClass c);

/** Chrome trace_event phase of one record. */
enum class EventPhase : std::uint8_t
{
    Instant,  ///< ph "i"
    Begin,    ///< ph "B"
    End,      ///< ph "E"
    Complete, ///< ph "X" (carries dur)
};

/** One trace record (fixed size; lives in the ring buffer). */
struct TraceEvent
{
    std::uint64_t ts = 0;  ///< simulated tick (engine cycle clock)
    std::uint64_t a0 = 0;  ///< first argument (usually an address)
    std::uint64_t a1 = 0;  ///< second argument
    std::uint64_t dur = 0; ///< Complete events only
    EventClass cls = EventClass::Op;
    EventPhase ph = EventPhase::Instant;
};

/**
 * Fixed-capacity single-writer ring buffer. Not thread-safe by
 * design: exactly one engine writes it, and the session only reads
 * after the owning simulation finished (lock-free by construction).
 */
class TraceBuffer
{
  public:
    explicit TraceBuffer(std::size_t cap);

    /** Append; overwrites the oldest record when full. */
    void
    push(const TraceEvent &e)
    {
        if (events_.size() < cap_) {
            events_.push_back(e);
        } else {
            events_[head_] = e;
            head_ = head_ + 1 == cap_ ? 0 : head_ + 1;
            ++overwritten_;
        }
    }

    /** Events currently held (<= cap). */
    std::size_t size() const { return events_.size(); }

    /** Events lost to ring overwrite. */
    std::uint64_t overwritten() const { return overwritten_; }

    /** Visit events in chronological order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < events_.size(); ++i)
            fn(events_[(head_ + i) % events_.size()]);
    }

  private:
    std::size_t cap_;
    std::size_t head_ = 0; ///< oldest record once the ring wrapped
    std::uint64_t overwritten_ = 0;
    std::vector<TraceEvent> events_;
};

/** Scheduling-independent ordering key of a trace buffer. */
using TraceKey = std::vector<std::uint64_t>;

/**
 * Marks the calling thread as running job @p job of a batch (one
 * sweep::parallelFor call, keyed by one nextKey()) for its lifetime.
 * nextKey() outside any scope is the next top-level sequence number;
 * inside one it is (batch key, job index, order within the job). So
 * keys ignore which worker ran first, and their lexicographic order
 * is the order a serial run opens in. Scopes nest.
 */
class TraceJobScope
{
  public:
    /** Key for the next buffer or batch on the calling thread. */
    static TraceKey nextKey();

    TraceJobScope(TraceKey batch, std::uint64_t job);
    ~TraceJobScope();

    TraceJobScope(const TraceJobScope &) = delete;
    TraceJobScope &operator=(const TraceJobScope &) = delete;

  private:
    TraceJobScope *outer_;
    TraceKey prefix_;
    std::uint64_t next_ = 0;
};

/**
 * Process-wide trace collection point. Configured once from the
 * environment (AMNT_TRACE, AMNT_TRACE_CAP); engines open buffers
 * here, and the merged Chrome JSON is written at process exit (or
 * explicitly via exportNow()).
 */
class TraceSession
{
  public:
    /** The process session (reads the environment on first use). */
    static TraceSession &global();

    /** True when AMNT_TRACE is set. */
    bool enabled() const;

    /** Per-engine event cap (AMNT_TRACE_CAP). */
    std::size_t cap() const;

    /**
     * Register a new per-engine buffer under TraceJobScope::nextKey().
     * Returns nullptr when the session is disabled. Thread-safe
     * (sweep jobs construct engines concurrently); the buffer itself
     * is then written lock-free by its single owner.
     */
    std::shared_ptr<TraceBuffer> openBuffer();

    /**
     * Merged Chrome trace_event JSON of all buffers opened so far, in
     * key order; a buffer's rank in that order is its "tid".
     */
    std::string exportJson() const;

    /** Write exportJson() to AMNT_TRACE now (fatal on I/O failure). */
    void exportNow() const;

    /**
     * Test hook: re-read the environment and drop all buffers.
     * Engines constructed before a reconfigure keep tracing into
     * their (now unreachable) old buffers; tests reconfigure before
     * building the engines under test.
     */
    void reconfigure();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

  private:
    TraceSession();

    void readEnv();

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Per-engine tracing facade. Construction attaches to the global
 * session; when tracing is disabled `on()` is false and every hook
 * is one predictable branch.
 */
class Tracer
{
  public:
    Tracer();

    /** Cached enable flag — the hot-path guard. */
    bool on() const { return on_; }

    /** Current simulated tick of this engine's track. */
    std::uint64_t now() const { return now_; }

    /** Advance the tick (end of a serviced operation). */
    void advance(std::uint64_t cycles) { now_ += cycles; }

    // The emit hooks guard on on_ themselves; hot paths additionally
    // guard at the call site to skip argument computation entirely.
    void
    instant(EventClass c, std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
        if (on_)
            buf_->push({now_, a0, a1, 0, c, EventPhase::Instant});
    }

    void
    begin(EventClass c, std::uint64_t a0 = 0)
    {
        if (on_)
            buf_->push({now_, a0, 0, 0, c, EventPhase::Begin});
    }

    void
    end(EventClass c)
    {
        if (on_)
            buf_->push({now_, 0, 0, 0, c, EventPhase::End});
    }

    void
    complete(EventClass c, std::uint64_t dur, std::uint64_t a0 = 0,
             std::uint64_t a1 = 0)
    {
        if (on_)
            buf_->push({now_, a0, a1, dur, c, EventPhase::Complete});
    }

  private:
    bool on_ = false;
    std::uint64_t now_ = 0;
    std::shared_ptr<TraceBuffer> buf_;
};

/**
 * Cached AMNT_OBS_TIMING flag: opt-in host-side wall-clock capture
 * (crypto batch times). Kept separate from tracing because host times
 * are inherently nondeterministic; everything else the observability
 * layer records is deterministic at any sweep thread count.
 */
bool hostTimingEnabled();

} // namespace amnt::obs

#endif // AMNT_OBS_TRACE_HH
