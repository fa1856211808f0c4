/**
 * @file
 * Measurement primitives of the serving benchmark, kept free of any
 * engine dependency so the benchmark's own tests can pin them down:
 * the percentile rule, quartile spreads, seeded arrival schedules, the
 * rate ladder's max-SLO-rate rule, per-request timing records, an
 * in-memory span tracer with trace-event export, the host fingerprint
 * and the one-line JSON result.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds from @p a to @p b. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// --- percentiles -----------------------------------------------------

/** Nearest-rank quantile of an ascending-sorted sample (q in [0,1]). */
double quantileSorted(const std::vector<double> &sorted, double q);

/**
 * Quantile @p q of @p samples, reported only when at least
 * @p min_beyond samples lie strictly above its rank — the rule that a
 * tail percentile needs ten samples beyond it to mean anything.
 * Empty when the sample is too small.
 */
std::optional<double> tailQuantile(std::vector<double> samples, double q,
                                   std::size_t min_beyond = 10);

/** Smallest sample count for which tailQuantile(q) reports. */
std::size_t minSamplesFor(double q, std::size_t min_beyond = 10);

/** Median of @p values (mean of the middle two for even counts). */
double median(std::vector<double> values);

/**
 * Interquartile range over median, with quartiles as Python's
 * statistics.quantiles(values, n=4) ("exclusive" method) gives them.
 */
double quartileSpread(std::vector<double> values);

// --- arrival schedules -----------------------------------------------

/**
 * Poisson arrival offsets (seconds, ascending) at @p rate over
 * [0, @p seconds); identical for identical (rate, seconds, seed).
 */
std::vector<double> poissonSchedule(double rate, double seconds,
                                    std::uint64_t seed);

// --- per-request records ---------------------------------------------

/** How one request left the engine, as the driver saw it. */
enum class Outcome : std::uint8_t
{
    kPending,
    kServed,
    kExpired,
    kRejected,
    kFailed,
};

/**
 * Driver- and engine-side timestamps of one request. Times are
 * seconds from the run's origin; engine intervals are the response's
 * queueSeconds/searchSeconds/totalSeconds.
 */
struct RequestRecord
{
    /** When the schedule said the request was due. */
    double due = 0.0;
    double submitStart = 0.0;
    double submitEnd = 0.0;
    /** Callback entry. */
    double done = 0.0;
    double queue = 0.0;
    double search = 0.0;
    double total = 0.0;
    Outcome outcome = Outcome::kPending;
    /** Effective nprobe the engine searched at (after degradation). */
    std::uint32_t nprobe = 0;
    /** Size of the batch the request was served in (0 unless served). */
    std::uint32_t batch = 0;
    /** Query id (pool or trace index) and tenant of the request. */
    std::uint32_t query = 0;
    std::uint32_t tenant = 0;
    /** FNV-1a of the served (id, distance) list. */
    std::uint64_t hitsHash = 0;
};

/** Latency the user saw: callback time minus due time. Because the
 *  clock starts at the due time, a generator stall that delays a
 *  submit is charged to the request, not hidden. */
inline double
latencyOf(const RequestRecord &r)
{
    return r.done - r.due;
}

/** Callback time minus the engine's admission-to-resolution total,
 *  with the total counted from the submit start. The response carries
 *  no absolute resolution time, so handoff is not timed on its own: it
 *  is this residual, and it absorbs the part of submit before
 *  admission. Summing the parts of a request therefore counts only the
 *  part of submit after admission twice. */
inline double
handoffOf(const RequestRecord &r)
{
    return r.done - r.submitStart - r.total;
}

/** Engine batch-search seconds a served request accounts for: its
 *  batch's search time split evenly over the batch. Summed over a
 *  window, this is the time the engine spent searching. */
inline double
searchShareOf(const RequestRecord &r)
{
    return r.batch ? r.search / static_cast<double>(r.batch) : 0.0;
}

/** A served request met @p limit seconds. */
inline bool
withinLimit(const RequestRecord &r, double limit)
{
    return r.outcome == Outcome::kServed && latencyOf(r) <= limit;
}

// --- rate ladder -----------------------------------------------------

/** One fixed-rate step of an open-loop ladder. */
struct Rung
{
    /** Scheduled rate (requests/s). */
    double rate = 0.0;
    /** Requests sent and their measured send rate. */
    std::size_t sent = 0;
    double sentRate = 0.0;
    /** Served within the latency limit / sent. */
    double sloAttain = 0.0;
    /** Requests still unresolved when the rung's schedule ended. */
    std::size_t backlogAtEnd = 0;
    /** Unresolved requests the rung may leave without counting as a
     *  growing backlog (rate x latency limit: what is legitimately in
     *  flight). */
    double backlogAllowance = 0.0;
};

/**
 * Index of the highest rung with sloAttain >= @p target and no growing
 * backlog; empty when no rung passes.
 */
std::optional<std::size_t> maxSloRung(const std::vector<Rung> &rungs,
                                      double target);

// --- tracing ---------------------------------------------------------

/** One timed interval; parent 0 = root. */
struct Span
{
    const char *name = "";
    std::uint64_t traceId = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    double start = 0.0;
    double end = 0.0;
};

/**
 * In-memory span recorder. Thread-safe; disabled tracers record
 * nothing. Spans are written out once, after the measured window.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Record @p span (no-op when disabled). */
    void record(const Span &span);

    /** Fresh span id for spans that are not keyed by request. */
    std::uint64_t newId();

    std::vector<Span> spans() const;

    /** Chrome trace-event JSON ("X" events, microseconds). */
    void writeTraceEvents(std::ostream &os) const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    /** Request-keyed ids stay below this. */
    std::uint64_t nextId_ = std::uint64_t{1} << 48;
};

/** Per span name: total self time (duration minus the union of its
 *  children's intervals, clipped to the span) and span count. */
struct SelfTime
{
    double seconds = 0.0;
    std::size_t count = 0;
};
std::map<std::string, SelfTime> selfTimes(const std::vector<Span> &spans);

// --- host ------------------------------------------------------------

/** Where and how a run executed. */
struct Fingerprint
{
    std::string cpuModel;
    unsigned nproc = 0;
    std::string affinity;
    /** Work rate of nproc spinning threads over one thread. */
    double parallelism = 0.0;
    std::string simd;
    std::string buildType;
    std::string commit;
    std::uint64_t seed = 0;
};

/** Probe the host (about 0.2 s of spinning). */
Fingerprint probeHost(const std::string &simd,
                      const std::string &build_type,
                      const std::string &commit, std::uint64_t seed);

/** One-line JSON rendering of @p fp. */
std::string toJson(const Fingerprint &fp);

/** Resident set size of this process in MiB (/proc/self/statm). */
double residentMiB();

/** Return memory the allocator holds free to the OS (malloc_trim on
 *  glibc; a no-op elsewhere), so the RSS counts live memory only. */
void releaseFreeMemory();

// --- result ----------------------------------------------------------

/** A named measurement with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** The benchmark's final line: correct/attempted/failed/metrics. */
std::string resultLine(bool correct, std::size_t attempted,
                       std::size_t failed,
                       const std::map<std::string, Metric> &metrics);

/** FNV-1a over raw bytes, chainable through @p h. */
std::uint64_t fnv1a(const void *data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ULL);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
