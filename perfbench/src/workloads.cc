#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/access_profile.h"
#include "core/engine_builder.h"
#include "core/engine_runtime.h"
#include "core/online_update.h"
#include "core/slo_autopilot.h"
#include "core/tiered_index.h"
#include "storage/index_store.h"
#include "storage/mmap_cold_tier.h"
#include "vecsearch/fastscan.h"
#include "vecsearch/ivf_pq_fastscan.h"
#include "workload/dataset.h"
#include "workload/plans.h"
#include "workload/tenant.h"

namespace perfbench
{
namespace
{

using namespace vlr;

constexpr std::size_t kDim = 64;
constexpr std::size_t kTopK = 10;
/** PQ sub-quantizers: dim/4, 4-bit codes (8 bytes per vector). */
constexpr std::size_t kSubQuantizers = kDim / 4;
/** Fixed engine search threads. One search thread (the batch runs on
 *  the dispatcher thread): the host this was sized on delivers between
 *  about one and four cores' worth of CPU from minute to minute, and a
 *  single-threaded engine is the shape whose latency does not depend
 *  on which. */
constexpr std::size_t kSearchThreads = 1;
/** Queries sampled for recall and the per-layer kernel passes. */
constexpr std::size_t kLayerSample = 256;
/** Traced requests per run, about: every n-th request is traced, with
 *  n sized from the expected request count, and the rest form the
 *  untraced comparison group that yields the tracing overhead. */
constexpr double kTracedRequests = 30000.0;

// --- small helpers ---------------------------------------------------

std::uint64_t
hashHits(const std::vector<vs::SearchHit> &hits)
{
    std::uint64_t h = fnv1a(nullptr, 0);
    for (const vs::SearchHit &x : hits) {
        h = fnv1a(&x.id, sizeof(x.id), h);
        h = fnv1a(&x.dist, sizeof(x.dist), h);
    }
    return h;
}

Clock::duration
toDuration(double seconds)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

std::uint64_t
mix(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
pctOf(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    return quantileSorted(v, q);
}

/** p99 under the ten-beyond rule; throws when the sample cannot
 *  support it (the workloads are sized so it always can). */
double
p99Of(const std::vector<double> &v, const char *what)
{
    const auto p = tailQuantile(v, 0.99);
    if (!p)
        throw std::runtime_error(std::string("too few samples for p99 of ") +
                                 what + ": " + std::to_string(v.size()));
    return *p;
}

Outcome
outcomeOf(core::Disposition d)
{
    switch (d) {
    case core::Disposition::kServed:
        return Outcome::kServed;
    case core::Disposition::kExpiredInQueue:
        return Outcome::kExpired;
    case core::Disposition::kRejected:
        return Outcome::kRejected;
    }
    return Outcome::kFailed;
}

// --- per-request log -------------------------------------------------

/**
 * Append-only request log in fixed chunks, so a record's address is
 * stable while callbacks fill it from engine threads.
 */
class RecordLog
{
  public:
    /** Allocate room for @p capacity records up front, so the log is
     *  resident before the driver's RSS baseline is read. */
    explicit RecordLog(std::size_t capacity)
    {
        for (std::size_t n = 0; n < capacity; n += kChunk)
            chunks_.push_back(std::make_unique<RequestRecord[]>(kChunk));
    }

    RequestRecord &
    append()
    {
        if (size_ == chunks_.size() * kChunk)
            chunks_.push_back(std::make_unique<RequestRecord[]>(kChunk));
        RequestRecord &r = chunks_[size_ / kChunk][size_ % kChunk];
        ++size_;
        return r;
    }
    const RequestRecord &
    operator[](std::size_t i) const
    {
        return chunks_[i / kChunk][i % kChunk];
    }
    std::size_t size() const { return size_; }

  private:
    static constexpr std::size_t kChunk = 1 << 15;
    std::vector<std::unique_ptr<RequestRecord[]>> chunks_;
    std::size_t size_ = 0;
};

/** Shared state of one measured load: clock origin, log, tracer. */
struct Load
{
    /** @p expected requests sizes the log and the trace sampling
     *  stride. */
    Load(Tracer &t, double expected)
        : log(static_cast<std::size_t>(expected * 1.1)),
          tracer(t),
          traceStride(std::max<std::size_t>(
              2, static_cast<std::size_t>(expected / kTracedRequests)))
    {
    }

    Clock::time_point origin = Clock::now();
    RecordLog log;
    std::atomic<std::size_t> resolved{0};
    Tracer &tracer;
    const std::size_t traceStride;
    /** The driver's own resident MiB (see markRssBase). */
    double rssBase = 0.0;
    /** Peak RSS in MiB above rssBase. */
    double rssPeak = 0.0;
    Clock::time_point lastRss{};

    /** Read the RSS baseline: called once the driver's own state (log,
     *  queries, reference) is resident and before the serving stack is
     *  built. */
    void
    markRssBase()
    {
        releaseFreeMemory();
        rssBase = residentMiB();
    }

    /** Start the measured window: drop what the repeated set-ups left
     *  free in the allocator, which a process that sets up once would
     *  not hold, so the peak counts the live serving stack. */
    void
    beginMeasuring()
    {
        releaseFreeMemory();
        sampleRss();
    }

    double
    now() const
    {
        return secondsBetween(origin, Clock::now());
    }

    bool
    traced(std::size_t idx) const
    {
        return tracer.enabled() && idx % traceStride == 0;
    }

    void
    sampleRss()
    {
        const auto t = Clock::now();
        if (t - lastRss < std::chrono::milliseconds(20))
            return;
        lastRss = t;
        rssPeak = std::max(rssPeak, residentMiB() - rssBase);
    }

    /** Completion callback body (engine threads). */
    void
    complete(RequestRecord &rec, std::size_t idx,
             const core::SearchResponse &r)
    {
        rec.done = now();
        rec.queue = r.queueSeconds;
        rec.search = r.searchSeconds;
        rec.total = r.totalSeconds;
        rec.outcome = outcomeOf(r.disposition);
        rec.nprobe = static_cast<std::uint32_t>(r.nprobe);
        rec.batch = static_cast<std::uint32_t>(r.batchSize);
        rec.hitsHash = hashHits(r.hits);
        if (traced(idx)) {
            // Engine intervals are anchored at the submit start, where
            // the engine stamps admission.
            const std::uint64_t root = idx * 4 + 1;
            tracer.record({"request", idx, root, 0, rec.due, rec.done});
            const double q0 = rec.submitStart;
            tracer.record({"queue", idx, root + 2, root, q0, q0 + rec.queue});
            tracer.record({"search", idx, root + 3, root, q0 + rec.queue,
                           q0 + rec.queue + rec.search});
        }
        resolved.fetch_add(1, std::memory_order_release);
    }

    /** Open loop: submit request j, built by @p make, at origin +
     *  due[j], late or not, and record its timing. */
    void
    openLoop(core::RetrievalEngine &engine, const std::vector<double> &due,
             const std::function<core::SearchRequest(std::size_t,
                                                     RequestRecord &)> &make)
    {
        for (std::size_t j = 0; j < due.size(); ++j) {
            std::this_thread::sleep_until(origin + toDuration(due[j]));
            const std::size_t idx = log.size();
            RequestRecord &rec = log.append();
            rec.due = due[j];
            const core::SearchRequest req = make(j, rec);
            rec.submitStart = now();
            engine.submitAsync(req, [this, &rec, idx](core::SearchResponse r) {
                complete(rec, idx, r);
            });
            rec.submitEnd = now();
            if (traced(idx))
                tracer.record({"submit", idx, idx * 4 + 2, idx * 4 + 1,
                               rec.submitStart, rec.submitEnd});
            sampleRss();
        }
    }
};

/** Request indices [begin, end) of a load, by outcome and timing. */
struct Slice
{
    const RecordLog &log;
    std::size_t begin = 0;
    std::size_t end = 0;
    /** Tenant whose requests latencies() leaves out (0 = none). */
    std::uint32_t skipTenant = 0;

    /** Driver lag (submit start minus due time) of every request. */
    std::vector<double>
    lags() const
    {
        std::vector<double> out;
        for (std::size_t i = begin; i < end; ++i)
            out.push_back(log[i].submitStart - log[i].due);
        return out;
    }

    /** Latencies of served requests (of one tenant when nonzero). */
    std::vector<double>
    latencies(std::uint32_t tenant = 0) const
    {
        std::vector<double> out;
        for (std::size_t i = begin; i < end; ++i)
            if (log[i].outcome == Outcome::kServed &&
                (tenant == 0 || log[i].tenant == tenant) &&
                (skipTenant == 0 || log[i].tenant != skipTenant))
                out.push_back(latencyOf(log[i]));
        return out;
    }

    std::size_t
    count(Outcome o) const
    {
        std::size_t n = 0;
        for (std::size_t i = begin; i < end; ++i)
            n += log[i].outcome == o;
        return n;
    }

    double
    sloAttain(double limit) const
    {
        std::size_t ok = 0;
        for (std::size_t i = begin; i < end; ++i)
            ok += withinLimit(log[i], limit);
        return end > begin ? static_cast<double>(ok) /
                                 static_cast<double>(end - begin)
                           : 0.0;
    }

    /** Served requests per second of the engine's batch-search time:
     *  the rate the engine sustains while busy, which the offered
     *  rate does not set. */
    double
    busyRate() const
    {
        double busy = 0.0;
        for (std::size_t i = begin; i < end; ++i)
            busy += searchShareOf(log[i]);
        return busy > 0 ? static_cast<double>(count(Outcome::kServed)) / busy
                        : 0.0;
    }

    /** Requests served within @p limit per second over @p seconds. */
    double
    goodput(double limit, double seconds) const
    {
        return sloAttain(limit) * static_cast<double>(end - begin) /
               seconds;
    }
};

/**
 * Medians over measurement windows. A transient stall from another
 * process on the host lands in a few windows; the median over windows
 * keeps it from moving the run's figure, which a pooled percentile
 * would not.
 */
template <typename F>
double
medianOver(const std::vector<Slice> &windows, F &&f)
{
    std::vector<double> v;
    for (const Slice &w : windows)
        v.push_back(f(w));
    return median(v);
}

double
medianP50(const std::vector<Slice> &windows)
{
    return medianOver(windows,
                      [](const Slice &w) { return pctOf(w.latencies(), 0.5); });
}

/** Median of per-window q-quantiles over the windows large enough to
 *  support one (ten samples beyond it). */
double
medianTail(const std::vector<Slice> &windows, double q, const char *what,
           std::uint32_t tenant = 0)
{
    std::vector<double> v;
    for (const Slice &w : windows)
        if (const auto p = tailQuantile(w.latencies(tenant), q))
            v.push_back(*p);
    if (v.empty())
        throw std::runtime_error(std::string("no window supports the tail "
                                             "quantile of ") +
                                 what);
    return median(v);
}

/** Open-loop validity: windows whose driver lag (submit start minus
 *  due time) had a p99 above @p threshold seconds. */
std::size_t
windowsBehind(const std::vector<Slice> &windows, double threshold)
{
    std::size_t n = 0;
    for (const Slice &w : windows) {
        if (const auto p = tailQuantile(w.lags(), 0.99); p && *p > threshold)
            ++n;
    }
    return n;
}

/** Split the due-ordered log into windows of @p width seconds of due
 *  time starting at @p start. */
std::vector<Slice>
timeWindows(const RecordLog &log, double start, double width)
{
    std::vector<Slice> out;
    std::size_t begin = 0;
    for (std::size_t i = 0; i <= log.size(); ++i) {
        const bool cut =
            i == log.size() ||
            static_cast<std::size_t>((log[i].due - start) / width) !=
                static_cast<std::size_t>((log[begin].due - start) / width);
        if (cut && i > begin) {
            out.push_back({log, begin, i});
            begin = i;
        }
    }
    return out;
}

// --- correctness -----------------------------------------------------

/**
 * Serial-search reference: the hash of IvfPqFastScanIndex::search for
 * (query, nprobe), computed once per pair.
 */
class Reference
{
  public:
    Reference(const vs::IvfPqFastScanIndex &index,
              std::function<const float *(std::uint32_t)> query)
        : index_(index), query_(std::move(query))
    {
    }

    std::uint64_t
    hash(std::uint32_t q, std::uint32_t nprobe)
    {
        const std::uint64_t key = (std::uint64_t{q} << 32) | nprobe;
        auto it = cache_.find(key);
        if (it == cache_.end())
            it = cache_
                     .emplace(key, hashHits(index_.search(query_(q), kTopK,
                                                          nprobe)))
                     .first;
        return it->second;
    }

    /** Top-k ids at @p nprobe (uncached; recall sampling). */
    std::vector<idx_t>
    ids(std::uint32_t q, std::size_t nprobe) const
    {
        std::vector<idx_t> out;
        for (const vs::SearchHit &h :
             index_.search(query_(q), kTopK, nprobe))
            out.push_back(h.id);
        return out;
    }

  private:
    const vs::IvfPqFastScanIndex &index_;
    std::function<const float *(std::uint32_t)> query_;
    std::unordered_map<std::uint64_t, std::uint64_t> cache_;
};

/** Every served response must equal serial search at its effective
 *  nprobe; no request may be left unresolved. */
void
checkResponses(const RecordLog &log, Reference &ref, RunResult &out)
{
    std::size_t mismatched = 0, pending = 0;
    for (std::size_t i = 0; i < log.size(); ++i) {
        const RequestRecord &r = log[i];
        if (r.outcome == Outcome::kPending)
            ++pending;
        else if (r.outcome == Outcome::kServed &&
                 r.hitsHash != ref.hash(r.query, r.nprobe))
            ++mismatched;
        else if (r.outcome == Outcome::kFailed)
            ++out.failed;
    }
    out.failed += mismatched + pending;
    if (mismatched)
        out.errors.push_back(std::to_string(mismatched) +
                             " served responses differ from serial search");
    if (pending)
        out.errors.push_back(std::to_string(pending) +
                             " requests never resolved");
}

/** Engine accounting over the measured load (@p before taken after
 *  warm-up, @p after at quiescence): totals sum, the engine's counts
 *  match the driver's, per-tenant slices sum to the totals. */
void
checkAccounting(const core::EngineStatsSnapshot &before,
                const core::EngineStatsSnapshot &after, const RecordLog &log,
                RunResult &out)
{
    const Slice all{log, 0, log.size()};
    if (after.submitted != after.served + after.expired + after.rejected)
        out.errors.push_back("submitted != served + expired + rejected");
    const std::size_t d_sub = after.submitted - before.submitted;
    const std::size_t d_srv = after.served - before.served;
    const std::size_t d_exp = after.expired - before.expired;
    const std::size_t d_rej = after.rejected - before.rejected;
    if (d_sub != log.size() || d_srv != all.count(Outcome::kServed) ||
        d_exp != all.count(Outcome::kExpired) ||
        d_rej != all.count(Outcome::kRejected))
        out.errors.push_back(
            "engine counts differ from the driver's: engine " +
            std::to_string(d_sub) + "/" + std::to_string(d_srv) + "/" +
            std::to_string(d_exp) + "/" + std::to_string(d_rej) +
            ", driver " + std::to_string(log.size()) + "/" +
            std::to_string(all.count(Outcome::kServed)) + "/" +
            std::to_string(all.count(Outcome::kExpired)) + "/" +
            std::to_string(all.count(Outcome::kRejected)) +
            " (submitted/served/expired/rejected)");
    if (!after.tenants.empty()) {
        std::size_t sub = 0, srv = 0, exp = 0, rej = 0, deg = 0, work = 0;
        for (const auto &t : after.tenants) {
            sub += t.submitted;
            srv += t.served;
            exp += t.expired;
            rej += t.rejected;
            deg += t.degradedServed;
            work += t.servedWork;
        }
        if (sub != after.submitted || srv != after.served ||
            exp != after.expired || rej != after.rejected ||
            deg != after.degradedServed || work != after.servedWork)
            out.errors.push_back("per-tenant slices do not sum to totals");
    }
}

// --- metrics ---------------------------------------------------------

struct Schema
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, reported (0 where a layer is bypassed) on
 *  every traced run. */
const std::vector<Schema> &
perLayerSchema()
{
    static const std::vector<Schema> s = {
        {"driver.lag_p50_ms", "ms"},
        {"driver.lag_p99_ms", "ms"},
        {"driver.sent", "count"},
        {"driver.behind", "count"},
        {"engine.submit_us_p50", "us"},
        {"engine.submit_us_p99", "us"},
        {"engine.handoff_us_p50", "us"},
        {"engine.handoff_us_p99", "us"},
        {"engine.stats_us", "us"},
        {"engine.batch_size_mean", "count"},
        {"engine.batches", "count"},
        {"engine.queue_ms_p50", "ms"},
        {"engine.queue_ms_p99", "ms"},
        {"engine.search_ms_p50", "ms"},
        {"engine.search_ms_p99", "ms"},
        {"engine.expired", "count"},
        {"engine.rejected", "count"},
        {"engine.degraded_served", "count"},
        {"tiered.route_us_per_query", "us"},
        {"tiered.scan_us_per_query", "us"},
        {"tiered.scans_per_query", "count"},
        {"tiered.split_frac", "ratio"},
        {"tiered.hot_only_frac", "ratio"},
        {"tiered.hot_probe_frac", "ratio"},
        {"tiered.shard_scan_us", "us"},
        {"tiered.cold_scan_us", "us"},
        {"tiered.hot_bytes", "bytes"},
        {"tiered.pending_reclaims", "count"},
        {"tiered.repartitions", "count"},
        {"vecsearch.cq_us_per_query", "us"},
        {"vecsearch.lut_us_per_query", "us"},
        {"vecsearch.scan_us_per_query", "us"},
        {"vecsearch.codes_per_query", "count"},
        {"vecsearch.bytes_per_query", "bytes"},
        {"storage.load_s", "s"},
        {"storage.mmap_open_s", "s"},
        {"storage.cold_resident_frac", "ratio"},
        {"control.cycle_ms_p50", "ms"},
        {"control.cycle_ms_max", "ms"},
        {"control.repartitions", "count"},
        {"control.rho_final", "ratio"},
        {"tenant.premium.work_share", "ratio"},
        {"tenant.premium.miss_rate", "ratio"},
        {"tenant.standard.work_share", "ratio"},
        {"tenant.standard.miss_rate", "ratio"},
        {"tenant.flood.work_share", "ratio"},
        {"tenant.flood.miss_rate", "ratio"},
        {"tail.p99_ms", "ms"},
        {"tail.p99_ms.low", "ms"},
        {"tail.p99_ms.high", "ms"},
        {"tail.premium_p99_ms", "ms"},
        {"decomp.latency_ms_p50", "ms"},
        {"decomp.parts_ms_p50", "ms"},
        {"decomp.closure_err", "ratio"},
        {"trace.overhead_us_p50", "us"},
        {"trace.spans", "count"},
        {"trace.self_us.request", "us"},
        {"trace.self_us.submit", "us"},
        {"trace.self_us.queue", "us"},
        {"trace.self_us.search", "us"},
        {"trace.self_ms.layer_pass", "ms"},
    };
    return s;
}

/** Relative gap allowed between the p50 of the summed request parts
 *  and the p50 latency. */
constexpr double kClosureTolerance = 0.05;
/** Driver lateness p99 beyond which an open-loop run is flagged as
 *  having fallen behind its schedule. */
constexpr double kBehindSeconds = 2e-3;

class Metrics
{
  public:
    explicit Metrics(RunResult &out) : out_(out)
    {
        for (const Schema &s : perLayerSchema())
            out_.perLayer[s.name] = {0.0, s.unit};
    }

    void
    e2e(const std::string &name, double v, const char *unit)
    {
        out_.endToEnd[name] = {v, unit};
    }

    void
    layer(const std::string &name, double v)
    {
        auto it = out_.perLayer.find(name);
        if (it == out_.perLayer.end())
            throw std::logic_error("per-layer metric not in schema: " +
                                   name);
        it->second.value = v;
    }

    /**
     * Latency family: p50 and p90 (end-to-end, steady enough for a
     * regression bound on a shared host) and p99 (per-layer "tail.*",
     * reported without a bound) at the reference level, the low and
     * high levels and for the premium tenant.
     */
    void
    latencyFamily(const std::vector<Slice> &ref,
                  const std::vector<Slice> &low,
                  const std::vector<Slice> &high,
                  const std::vector<Slice> &premium90,
                  const std::vector<Slice> &premium99, std::uint32_t tenant)
    {
        e2e("p50_ms", medianP50(ref) * 1e3, "ms");
        e2e("p90_ms", medianTail(ref, 0.90, "reference") * 1e3, "ms");
        e2e("p90_ms.low", medianTail(low, 0.90, "low") * 1e3, "ms");
        e2e("p90_ms.high", medianTail(high, 0.90, "high") * 1e3, "ms");
        e2e("premium_p90_ms",
            medianTail(premium90, 0.90, "premium", tenant) * 1e3, "ms");
        layer("tail.p99_ms", medianTail(ref, 0.99, "reference") * 1e3);
        layer("tail.p99_ms.low", medianTail(low, 0.99, "low") * 1e3);
        layer("tail.p99_ms.high", medianTail(high, 0.99, "high") * 1e3);
        layer("tail.premium_p99_ms",
              medianTail(premium99, 0.99, "premium", tenant) * 1e3);
    }

    /** Driver, engine, decomposition and trace metrics over the
     *  requests of @p windows. */
    void
    requestLayers(const std::vector<Slice> &windows, const Load &load)
    {
        std::vector<double> lag, submit, handoff, queue, search, parts, lat;
        std::vector<double> traced, untraced;
        for (const Slice &w : windows)
            for (std::size_t i = w.begin; i < w.end; ++i) {
                const RequestRecord &r = w.log[i];
                lag.push_back(r.submitStart - r.due);
                submit.push_back(r.submitEnd - r.submitStart);
                if (r.outcome != Outcome::kServed)
                    continue;
                handoff.push_back(handoffOf(r));
                queue.push_back(r.queue);
                search.push_back(r.search);
                parts.push_back(lag.back() + submit.back() + r.queue +
                                r.search + handoff.back());
                lat.push_back(latencyOf(r));
                (load.traced(i) ? traced : untraced)
                    .push_back(latencyOf(r));
            }
        layer("driver.lag_p50_ms", pctOf(lag, 0.5) * 1e3);
        layer("driver.lag_p99_ms", p99Of(lag, "lag") * 1e3);
        layer("engine.submit_us_p50", pctOf(submit, 0.5) * 1e6);
        layer("engine.submit_us_p99", p99Of(submit, "submit") * 1e6);
        layer("engine.handoff_us_p50", pctOf(handoff, 0.5) * 1e6);
        layer("engine.handoff_us_p99", p99Of(handoff, "handoff") * 1e6);
        layer("engine.queue_ms_p50", pctOf(queue, 0.5) * 1e3);
        layer("engine.queue_ms_p99", p99Of(queue, "queue") * 1e3);
        layer("engine.search_ms_p50", pctOf(search, 0.5) * 1e3);
        layer("engine.search_ms_p99", p99Of(search, "search") * 1e3);
        const double lat50 = pctOf(lat, 0.5);
        const double parts50 = pctOf(parts, 0.5);
        layer("decomp.latency_ms_p50", lat50 * 1e3);
        layer("decomp.parts_ms_p50", parts50 * 1e3);
        const double err = lat50 > 0 ? std::abs(parts50 - lat50) / lat50 : 0;
        layer("decomp.closure_err", err);
        if (err > kClosureTolerance)
            out_.errors.push_back("request parts do not add up to latency");
        layer("trace.overhead_us_p50",
              (pctOf(traced, 0.5) - pctOf(untraced, 0.5)) * 1e6);
    }

    void
    engineLayers(const core::EngineStatsSnapshot &st,
                 const core::RetrievalEngine &engine)
    {
        std::vector<double> t;
        for (int i = 0; i < 9; ++i) {
            const auto a = Clock::now();
            const auto snapshot = engine.stats();
            t.push_back(secondsBetween(a, Clock::now()));
        }
        layer("engine.stats_us", median(t) * 1e6);
        layer("engine.batch_size_mean", st.meanBatchSize);
        layer("engine.batches", static_cast<double>(st.batches));
        layer("engine.expired", static_cast<double>(st.expired));
        layer("engine.rejected", static_cast<double>(st.rejected));
        layer("engine.degraded_served",
              static_cast<double>(st.degradedServed));
    }

    void
    tieredLayers(const core::TieredStatsSnapshot &a,
                 const core::TieredStatsSnapshot &b)
    {
        const double q = static_cast<double>(b.queries - a.queries);
        double shard_s = 0.0, shard_n = 0.0;
        for (std::size_t i = 0; i < b.shardScanCounts.size(); ++i) {
            const bool old = i < a.shardScanCounts.size();
            shard_s += b.shardScanSeconds[i] -
                       (old ? a.shardScanSeconds[i] : 0.0);
            shard_n += static_cast<double>(
                b.shardScanCounts[i] - (old ? a.shardScanCounts[i] : 0));
        }
        const double cold_s = b.coldScanSeconds - a.coldScanSeconds;
        const double cold_n =
            static_cast<double>(b.coldScanCounts - a.coldScanCounts);
        const double probes =
            static_cast<double>(b.totalProbes - a.totalProbes);
        layer("tiered.scans_per_query", q > 0 ? (shard_n + cold_n) / q : 0);
        layer("tiered.split_frac",
              q > 0 ? static_cast<double>(b.splitQueries - a.splitQueries) / q
                    : 0);
        layer("tiered.hot_only_frac",
              q > 0
                  ? static_cast<double>(b.hotOnlyQueries - a.hotOnlyQueries) /
                        q
                  : 0);
        layer("tiered.hot_probe_frac",
              probes > 0
                  ? static_cast<double>(b.hotProbes - a.hotProbes) / probes
                  : 0);
        layer("tiered.shard_scan_us", shard_n > 0 ? shard_s / shard_n * 1e6 : 0);
        layer("tiered.cold_scan_us", cold_n > 0 ? cold_s / cold_n * 1e6 : 0);
        layer("tiered.hot_bytes", static_cast<double>(b.hotBytes));
        layer("tiered.pending_reclaims", static_cast<double>(b.pendingReclaims));
        layer("tiered.repartitions",
              static_cast<double>(b.repartitions - a.repartitions));
        layer("control.rho_final", b.rho);
    }

    /** Serial searchBatch with the kernel's stage breakdown, plus the
     *  code and byte volume of the probed lists. */
    void
    vecsearchLayers(const vs::IvfPqFastScanIndex &index,
                    const std::vector<float> &queries, std::size_t nprobe,
                    Tracer &tracer, const Load &load)
    {
        const std::size_t nq = queries.size() / kDim;
        vs::SearchBreakdown bd;
        const double t0 = load.now();
        index.searchBatch(queries, nq, kTopK, nprobe, &bd);
        tracer.record({"searchBatch", 0, tracer.newId(), 0, t0, load.now()});
        double codes = 0.0, bytes = 0.0;
        for (std::size_t i = 0; i < nq; ++i)
            for (cluster_id_t c :
                 index.quantizer().probe(&queries[i * kDim], nprobe).clusters) {
                codes += static_cast<double>(index.listSize(c));
                bytes += static_cast<double>(index.listBytes(c));
            }
        const double n = static_cast<double>(nq);
        layer("vecsearch.cq_us_per_query", bd.cqSeconds / n * 1e6);
        layer("vecsearch.lut_us_per_query", bd.lutBuildSeconds / n * 1e6);
        layer("vecsearch.scan_us_per_query", bd.scanSeconds / n * 1e6);
        layer("vecsearch.codes_per_query", codes / n);
        layer("vecsearch.bytes_per_query", bytes / n);
    }

    /** TieredIndex::searchBatchParallel at the engine's mean batch size
     *  on a private pool of the engine's width. */
    void
    tieredPassLayers(const core::TieredIndex &tiered,
                     const std::vector<float> &queries, std::size_t nprobe,
                     double mean_batch, Tracer &tracer, const Load &load)
    {
        const std::size_t nq = queries.size() / kDim;
        const std::size_t b =
            std::clamp<std::size_t>(std::lround(mean_batch), 1, nq);
        ThreadPool pool(kSearchThreads);
        double route = 0.0, scan = 0.0;
        for (std::size_t i = 0; i < nq; i += b) {
            const std::size_t n = std::min(b, nq - i);
            core::TieredBatchStats bs;
            const double t0 = load.now();
            tiered.searchBatchParallel(
                std::span<const float>(&queries[i * kDim], n * kDim), n,
                kTopK, nprobe, pool, &bs);
            tracer.record({"TieredIndex::searchBatchParallel", 0,
                           tracer.newId(), 0, t0, load.now()});
            route += bs.routeSeconds;
            scan += bs.scanSeconds;
        }
        layer("tiered.route_us_per_query", route / static_cast<double>(nq) * 1e6);
        layer("tiered.scan_us_per_query", scan / static_cast<double>(nq) * 1e6);
    }

    void
    tenantLayers(const core::EngineStatsSnapshot &st,
                 const std::vector<std::pair<std::uint64_t, std::string>>
                     &names)
    {
        for (const auto &t : st.tenants)
            for (const auto &[id, name] : names)
                if (t.tenant.value == id) {
                    layer("tenant." + name + ".work_share",
                          st.servedWork ? static_cast<double>(t.servedWork) /
                                              static_cast<double>(st.servedWork)
                                        : 0.0);
                    layer("tenant." + name + ".miss_rate", t.missRate());
                }
    }

    /** Self time per request-span kind and over the layer passes. */
    void
    traceLayers(const Tracer &tracer)
    {
        const auto spans = tracer.spans();
        layer("trace.spans", static_cast<double>(spans.size()));
        double pass = 0.0;
        for (const auto &[name, st] : selfTimes(spans)) {
            const double mean_us =
                st.count ? st.seconds / static_cast<double>(st.count) * 1e6
                         : 0.0;
            if (name == "request" || name == "submit" || name == "queue" ||
                name == "search")
                layer("trace.self_us." + name, mean_us);
            else
                pass += st.seconds;
        }
        layer("trace.self_ms.layer_pass", pass * 1e3);
    }

  private:
    RunResult &out_;
};

/** Mean overlap of the served top-k with an exhaustive top-k. */
double
recallAt10(const Reference &ref, const std::vector<std::uint32_t> &queries,
           const std::vector<std::uint32_t> &nprobes, std::size_t nlist)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
        auto served = ref.ids(queries[i], nprobes[i]);
        auto truth = ref.ids(queries[i], nlist);
        std::sort(served.begin(), served.end());
        std::sort(truth.begin(), truth.end());
        std::vector<idx_t> both;
        std::set_intersection(served.begin(), served.end(), truth.begin(),
                              truth.end(), std::back_inserter(both));
        sum += static_cast<double>(both.size()) / static_cast<double>(kTopK);
    }
    return queries.empty() ? 0.0 : sum / static_cast<double>(queries.size());
}

/** Submit @p n pool queries in closed-loop rounds of 64 (below any
 *  admission bound) and wait for all of them. */
void
warmUp(core::RetrievalEngine &engine, const std::vector<float> &pool,
       std::size_t n)
{
    const std::size_t np = pool.size() / kDim;
    for (std::size_t i = 0; i < n;) {
        std::vector<std::future<core::SearchResponse>> f;
        for (; i < n && f.size() < 64; ++i)
            f.push_back(engine.submit({.query = std::span<const float>(
                                           &pool[(i % np) * kDim], kDim)}));
        for (auto &x : f)
            x.get();
    }
}

wl::DatasetSpec
corpusSpec(std::size_t n, std::size_t nlist, std::size_t nprobe)
{
    wl::DatasetSpec spec = wl::tinySpec();
    spec.numVectors = n;
    spec.dim = kDim;
    spec.numClusters = nlist;
    spec.nprobe = nprobe;
    spec.queryZipf = 0.9;
    // The corpus is part of the workload's definition and stays fixed;
    // --seed draws the traffic.
    spec.seed = 7;
    return spec;
}

core::AccessProfile
profileFor(const wl::SyntheticDataset &ds, const vs::CoarseQuantizer &cq,
           const std::vector<float> &cal, std::size_t nprobe)
{
    const wl::DatasetSpec &spec = ds.spec();
    std::vector<double> work(spec.numClusters);
    for (std::size_t c = 0; c < spec.numClusters; ++c)
        work[c] = static_cast<double>(ds.clusterSizes()[c]);
    const auto plans =
        wl::PlanSet::build(cq, cal, cal.size() / kDim, nprobe, work);
    return core::AccessProfile::fromPlans(plans, ds);
}

std::vector<std::uint32_t>
uniformPicks(std::size_t n, std::size_t range, std::uint64_t seed)
{
    std::mt19937_64 gen(seed);
    std::uniform_int_distribution<std::uint32_t> d(
        0, static_cast<std::uint32_t>(range - 1));
    std::vector<std::uint32_t> out(n);
    for (auto &x : out)
        x = d(gen);
    return out;
}

void
writeTrace(const Tracer &tracer, const RunOptions &opts)
{
    const std::string path = opts.workDir + "/trace-" + opts.workload +
                             "-" + std::to_string(opts.seed) + ".json";
    std::ofstream os(path);
    tracer.writeTraceEvents(os);
    std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                path.c_str());
}

// ====================================================================
// Open-loop rate ladder shared by skew_tiered and flat_open
// ====================================================================

/** Latency limit and attainment target that define a compliant rung. */
constexpr double kLadderLimit = 0.015;
constexpr double kLadderTarget = 0.99;

/** One ladder run: per-rung phases and the rungs they summarize. */
struct Ladder
{
    std::vector<std::vector<Slice>> windows;
    std::vector<Rung> rungs;
    double phaseSeconds = 0.0;
    std::size_t phases = 0;
};

/**
 * Drive @p rates as a Poisson ladder over queries drawn uniformly from
 * @p pool. The rungs are interleaved in short phases (low, mid, high,
 * low, ...) so host interference lands on every rung alike; each
 * rung's figures are medians over its phases. The engine is drained
 * between phases.
 */
Ladder
runLadder(core::RetrievalEngine &engine, Load &load,
          const std::vector<float> &pool, const std::vector<double> &rates,
          double seconds, std::uint64_t seed)
{
    const std::size_t np = pool.size() / kDim;
    const std::size_t cycles =
        std::max<std::size_t>(2, static_cast<std::size_t>(seconds / 5.0));
    Ladder out;
    out.phases = cycles * rates.size();
    out.phaseSeconds = seconds / static_cast<double>(out.phases);
    out.windows.resize(rates.size());
    std::vector<std::vector<double>> backlogs(rates.size());
    for (std::size_t c = 0; c < cycles; ++c)
        for (std::size_t r = 0; r < rates.size(); ++r) {
            const std::uint64_t stream = 100 + c * rates.size() + r;
            const double start = load.now() + 1e-3;
            auto due = poissonSchedule(rates[r], out.phaseSeconds,
                                       mix(seed, stream));
            for (double &d : due)
                d += start;
            const auto picks =
                uniformPicks(due.size(), np, mix(seed, stream + 1000));
            const std::size_t begin = load.log.size();
            load.openLoop(engine, due, [&](std::size_t j, RequestRecord &rec) {
                rec.query = picks[j];
                return core::SearchRequest{
                    .query = std::span<const float>(&pool[picks[j] * kDim],
                                                    kDim)};
            });
            const std::size_t end = load.log.size();
            backlogs[r].push_back(static_cast<double>(
                end - std::min(end, load.resolved.load(
                                        std::memory_order_acquire))));
            engine.drain();
            load.sampleRss();
            out.windows[r].push_back({load.log, begin, end});
        }
    for (std::size_t r = 0; r < rates.size(); ++r) {
        Rung rung;
        rung.rate = rates[r];
        rung.sentRate = medianOver(out.windows[r], [&](const Slice &w) {
            return static_cast<double>(w.end - w.begin) / out.phaseSeconds;
        });
        for (const Slice &w : out.windows[r])
            rung.sent += w.end - w.begin;
        rung.sloAttain = medianOver(out.windows[r], [](const Slice &w) {
            return w.sloAttain(kLadderLimit);
        });
        rung.backlogAtEnd = static_cast<std::size_t>(median(backlogs[r]));
        rung.backlogAllowance = rates[r] * kLadderLimit;
        out.rungs.push_back(rung);
    }
    return out;
}

/** End-to-end metrics of a single-tenant ladder run (latency at the
 *  middle rung), the per-rung report and the validity check. */
void
ladderMetrics(Metrics &m, const Ladder &l, const Load &load,
              const Reference &ref, std::size_t nlist, double setup_s)
{
    const std::vector<Slice> &mid = l.windows[1];
    const auto best = maxSloRung(l.rungs, kLadderTarget);
    std::vector<std::uint32_t> rq, rn;
    for (std::size_t i = 0; i < load.log.size() && rq.size() < kLayerSample;
         ++i)
        if (load.log[i].outcome == Outcome::kServed) {
            rq.push_back(load.log[i].query);
            rn.push_back(load.log[i].nprobe);
        }
    const Slice all{load.log, 0, load.log.size()};
    m.e2e("setup_s", setup_s, "s");
    m.latencyFamily(mid, l.windows.front(), l.windows.back(), mid, mid, 0);
    m.e2e("max_slo_qps", best ? l.rungs[*best].sentRate : 0.0, "1/s");
    m.e2e("slo_attain", l.rungs[1].sloAttain, "ratio");
    m.e2e("qps", medianOver(mid, [](const Slice &w) { return w.busyRate(); }),
          "1/s");
    m.e2e("served_ratio",
          static_cast<double>(all.count(Outcome::kServed)) /
              static_cast<double>(load.log.size()),
          "ratio");
    m.e2e("recall_at_10", recallAt10(ref, rq, rn, nlist), "ratio");
    m.e2e("rss_mb", load.rssPeak, "MiB");

    for (std::size_t r = 0; r < l.rungs.size(); ++r)
        std::printf("rung %.0f/s: sent %zu (%.1f/s per phase), attain %.4f, "
                    "backlog %zu, p50 %.3f ms, p99 %.3f ms (medians of %zu "
                    "phases of %.2f s)\n",
                    l.rungs[r].rate, l.rungs[r].sent, l.rungs[r].sentRate,
                    l.rungs[r].sloAttain, l.rungs[r].backlogAtEnd,
                    medianP50(l.windows[r]) * 1e3,
                    medianTail(l.windows[r], 0.99, "rung") * 1e3,
                    l.windows[r].size(), l.phaseSeconds);
    std::size_t behind = 0;
    for (const auto &w : l.windows)
        behind += windowsBehind(w, kBehindSeconds);
    if (behind)
        std::printf("VALIDITY: generator fell behind its schedule in %zu "
                    "of %zu phases (lag p99 > %.1f ms)\n",
                    behind, l.phases, kBehindSeconds * 1e3);
    m.layer("driver.behind", static_cast<double>(behind));
    m.layer("driver.sent", static_cast<double>(load.log.size()));
    m.layer("tenant.premium.work_share", 1.0);
    m.layer("tenant.premium.miss_rate",
            1.0 - static_cast<double>(all.count(Outcome::kServed)) /
                      static_cast<double>(load.log.size()));
}

double
meanOf(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// ====================================================================
// skew_tiered: open-loop ladder over a tiered 1M-vector index
// ====================================================================

namespace skew
{
constexpr std::size_t kVectors = 1000000;
constexpr std::size_t kNlist = 1024;
constexpr std::size_t kNprobe = 16;
constexpr double kRho = 0.25;
constexpr std::size_t kHotShards = 2;
constexpr std::size_t kPool = 4096;
constexpr int kSetups = 5;
/** Ladder rungs (requests/s), up to about a quarter of the one-thread
 *  engine's closed-loop capacity (latency at higher rungs followed the
 *  host's CPU share); latency is reported at the middle. */
const std::vector<double> kRates = {700.0, 1400.0, 2100.0};
} // namespace skew

RunResult
runSkewTiered(const RunOptions &opts)
{
    using namespace skew;
    RunResult out;
    Metrics m(out);
    Tracer tracer(opts.trace);
    Load load(tracer, meanOf(kRates) * opts.seconds);
    load.markRssBase();

    auto ds = std::make_unique<wl::SyntheticDataset>(
        corpusSpec(kVectors, kNlist, kNprobe));
    ds->buildVectors();
    const auto cq = ds->makeCoarseQuantizer();
    const auto pool = wl::QueryGenerator(*ds, mix(opts.seed, 1))
                          .generate(kPool);
    const auto cal = wl::QueryGenerator(*ds, mix(opts.seed, 2))
                         .generate(2000);

    // Set-up, timed as a whole and repeated; the last one serves.
    std::unique_ptr<core::RetrievalEngine> engine;
    std::unique_ptr<vs::IvfPqFastScanIndex> index;
    std::vector<double> setups;
    for (int rep = 0; rep < kSetups; ++rep) {
        engine.reset();
        index.reset();
        const auto t0 = Clock::now();
        index = std::make_unique<vs::IvfPqFastScanIndex>(cq, kSubQuantizers);
        index->train(ds->vectors(), kVectors);
        index->addPreassigned(ds->vectors(), kVectors, ds->assignments());
        const auto profile = profileFor(*ds, *cq, cal, kNprobe);
        engine = core::EngineBuilder(*index)
                     .tieredFromProfile(profile, kRho)
                     .hotShards(kHotShards)
                     .defaultK(kTopK)
                     .defaultNprobe(kNprobe)
                     .searchThreads(kSearchThreads)
                     .batching({.maxBatch = 32, .timeoutSeconds = 1e-3})
                     .build();
        warmUp(*engine, pool, 512);
        setups.push_back(secondsBetween(t0, Clock::now()));
    }
    ds.reset(); // the raw corpus is not part of the serving process
    load.beginMeasuring();

    const core::TieredIndex &tiered = *engine->tiered();
    const auto tiered0 = tiered.stats();
    const auto engine0 = engine->stats();
    const Ladder ladder =
        runLadder(*engine, load, pool, kRates, opts.seconds, opts.seed);
    const auto engine1 = engine->stats();
    const auto tiered1 = tiered.stats();

    Reference ref(*index, [&](std::uint32_t q) { return &pool[q * kDim]; });
    checkResponses(load.log, ref, out);
    checkAccounting(engine0, engine1, load.log, out);
    if (tiered1.pendingReclaims != 0)
        out.errors.push_back("epoch limbo not drained at quiescence");
    out.attempted = load.log.size();
    ladderMetrics(m, ladder, load, ref, kNlist, median(setups));

    if (opts.trace) {
        m.requestLayers(ladder.windows[1], load);
        m.engineLayers(engine1, *engine);
        m.tieredLayers(tiered0, tiered1);
        const std::vector<float> sample(pool.begin(),
                                        pool.begin() + kLayerSample * kDim);
        m.vecsearchLayers(*index, sample, kNprobe, tracer, load);
        m.tieredPassLayers(tiered, sample, kNprobe, engine1.meanBatchSize,
                           tracer, load);
        m.traceLayers(tracer);
        writeTrace(tracer, opts);
    }
    return out;
}

// ====================================================================
// flat_open: open-loop ladder over a flat, L2-resident index
// ====================================================================

namespace flat
{
constexpr std::size_t kVectors = 40000;
constexpr std::size_t kNlist = 256;
constexpr std::size_t kNprobe = 8;
constexpr std::size_t kPool = 4096;
constexpr int kSetups = 9;
/** Ladder rungs (requests/s), up to about a third of the one-thread
 *  engine's closed-loop capacity. */
const std::vector<double> kRates = {4000.0, 8000.0, 12000.0};
} // namespace flat

RunResult
runFlatOpen(const RunOptions &opts)
{
    using namespace flat;
    RunResult out;
    Metrics m(out);
    Tracer tracer(opts.trace);
    Load load(tracer, meanOf(kRates) * opts.seconds);
    load.markRssBase();

    auto ds = std::make_unique<wl::SyntheticDataset>(
        corpusSpec(kVectors, kNlist, kNprobe));
    ds->buildVectors();
    const auto cq = ds->makeCoarseQuantizer();
    const auto pool =
        wl::QueryGenerator(*ds, mix(opts.seed, 1)).generate(kPool);

    std::unique_ptr<core::RetrievalEngine> engine;
    std::unique_ptr<vs::IvfPqFastScanIndex> index;
    std::vector<double> setups;
    for (int rep = 0; rep < kSetups; ++rep) {
        engine.reset();
        index.reset();
        const auto t0 = Clock::now();
        index = std::make_unique<vs::IvfPqFastScanIndex>(cq, kSubQuantizers);
        index->train(ds->vectors(), kVectors);
        index->addPreassigned(ds->vectors(), kVectors, ds->assignments());
        engine = core::EngineBuilder(*index)
                     .defaultK(kTopK)
                     .defaultNprobe(kNprobe)
                     .searchThreads(kSearchThreads)
                     .batching({.maxBatch = 32, .timeoutSeconds = 1e-3})
                     .build();
        warmUp(*engine, pool, 2048);
        setups.push_back(secondsBetween(t0, Clock::now()));
    }
    ds.reset();
    load.beginMeasuring();

    const auto engine0 = engine->stats();
    const Ladder ladder =
        runLadder(*engine, load, pool, kRates, opts.seconds, opts.seed);
    const auto engine1 = engine->stats();

    Reference ref(*index, [&](std::uint32_t q) { return &pool[q * kDim]; });
    checkResponses(load.log, ref, out);
    checkAccounting(engine0, engine1, load.log, out);
    out.attempted = load.log.size();
    ladderMetrics(m, ladder, load, ref, kNlist, median(setups));

    if (opts.trace) {
        m.requestLayers(ladder.windows[1], load);
        m.engineLayers(engine1, *engine);
        const std::vector<float> sample(pool.begin(),
                                        pool.begin() + kLayerSample * kDim);
        m.vecsearchLayers(*index, sample, kNprobe, tracer, load);
        m.traceLayers(tracer);
        writeTrace(tracer, opts);
    }
    return out;
}

// ====================================================================
// tenant_drift: three tenants, a flood and a hotspot flip, served from
// an artifact with an mmap cold tier under the stepped autopilot
// ====================================================================

namespace drift
{
constexpr std::size_t kVectors = 200000;
constexpr std::size_t kNlist = 512;
constexpr std::size_t kNprobe = 16;
constexpr double kRho = 0.2;
constexpr int kSetups = 15;
constexpr std::uint64_t kPremium = 1, kStandard = 2, kFlood = 3;
constexpr double kPremiumRate = 400.0;
constexpr double kStandardRate = 800.0;
constexpr double kFloodRate = 1500.0;
/** Flood window as fractions of the horizon. */
constexpr double kFloodStart = 0.35, kFloodEnd = 0.65;
constexpr double kFlip = 0.5;
constexpr double kLimit = 0.020;
constexpr int kControlCycles = 4;
} // namespace drift

RunResult
runTenantDrift(const RunOptions &opts)
{
    using namespace drift;
    RunResult out;
    Metrics m(out);
    Tracer tracer(opts.trace);
    const double horizon = opts.seconds;

    // Driver-side preparation: corpus, reference index, artifact,
    // access profile and the replayable trace.
    auto corpus = std::make_unique<wl::SyntheticDataset>(
        corpusSpec(kVectors, kNlist, kNprobe));
    const wl::SyntheticDataset &ds = *corpus;
    corpus->buildVectors();
    const auto cq = ds.makeCoarseQuantizer();
    vs::IvfPqFastScanIndex index(cq, kSubQuantizers);
    index.train(ds.vectors(), kVectors);
    index.addPreassigned(ds.vectors(), kVectors, ds.assignments());
    const std::string artifact = opts.workDir + "/tenant_drift-" +
                                 std::to_string(opts.seed) + ".vlra";
    storage::IndexStore::save(artifact, index);
    const auto profile = profileFor(
        ds, *cq, wl::QueryGenerator(ds, mix(opts.seed, 2)).generate(2000),
        kNprobe);

    wl::WorkloadScript script;
    script.horizonSeconds = horizon;
    {
        wl::TenantSpec premium;
        premium.name = "premium";
        premium.tenant = {kPremium};
        premium.arrivalRate = kPremiumRate;
        premium.zipfTheta = 1.1;
        premium.hotspotFlipSeconds = {kFlip * horizon};
        premium.k = kTopK;
        premium.deadlineSeconds = kLimit;
        script.tenants.push_back(premium);
        wl::TenantSpec standard = premium;
        standard.name = "standard";
        standard.tenant = {kStandard};
        standard.arrivalRate = kStandardRate;
        standard.zipfTheta = 0.9;
        standard.deadlineSeconds = 2 * kLimit;
        script.tenants.push_back(standard);
        wl::TenantSpec flood = standard;
        flood.name = "flood";
        flood.tenant = {kFlood};
        flood.arrivalRate = kFloodRate;
        flood.zipfTheta = 1.2;
        flood.hotspotFlipSeconds = {};
        flood.priority = 3;
        flood.activeStartSeconds = kFloodStart * horizon;
        flood.activeEndSeconds = kFloodEnd * horizon;
        script.tenants.push_back(flood);
    }
    const auto trace =
        wl::WorkloadTrace::generate(script, ds, mix(opts.seed, 3));
    const auto &reqs = trace.requests();
    corpus.reset();
    // The reference index and the trace stay alive through the run;
    // they are the driver's, not the serving stack's.
    Load load(tracer, static_cast<double>(reqs.size()));
    load.markRssBase();

    core::TenantPolicy tenants;
    tenants.enable = true;
    tenants.fairService = true;
    core::AutopilotPolicy pilot;
    pilot.enable = true;
    pilot.controlIntervalSeconds = 0.0;
    // Coverage is pinned and any change in the live hot set rebuilds,
    // so every control cycle repartitions to follow the hotspot. With
    // coverage free (0.1-0.5) the autopilot's coverage moves followed
    // the host's speed and it repartitioned 1-4 times per run, which
    // moved rss_mb by up to half.
    pilot.minRho = kRho;
    pilot.maxRho = kRho;
    pilot.hotSetDivergence = 0.0;
    pilot.maxShards = 2;

    // Set-up: artifact load + cold-tier mapping + tier, control plane
    // and engine build + warm-up. The tier and its updater are owned
    // here rather than by the engine so the quiescence check below can
    // wait for the last rebuild and issue the final swap.
    struct Stack
    {
        std::unique_ptr<vs::IvfPqFastScanIndex> index;
        std::unique_ptr<storage::MmapColdTier> cold;
        std::unique_ptr<core::TieredIndex> tiered;
        std::unique_ptr<core::OnlineUpdater> updater;
        std::unique_ptr<core::RetrievalEngine> engine;

        void
        reset()
        {
            engine.reset();
            updater.reset();
            tiered.reset();
            cold.reset();
            index.reset();
        }
    };
    Stack stack;
    std::vector<double> setups, loads, opens;
    std::vector<float> warm(std::min<std::size_t>(reqs.size(), 512) * kDim);
    for (std::size_t i = 0; i * kDim < warm.size(); ++i)
        std::copy(reqs[i].query.begin(), reqs[i].query.end(),
                  warm.begin() + i * kDim);
    for (int rep = 0; rep < kSetups; ++rep) {
        stack.reset();
        const auto t0 = Clock::now();
        stack.index = std::make_unique<vs::IvfPqFastScanIndex>(
            storage::IndexStore::load(artifact));
        const auto t1 = Clock::now();
        stack.cold = std::make_unique<storage::MmapColdTier>(
            artifact, storage::MmapColdTierOptions{});
        const auto t2 = Clock::now();
        core::TieredOptions topts;
        topts.numShards = 2;
        topts.maxShards = pilot.maxShards;
        topts.coldBackend = stack.cold.get();
        stack.tiered = std::make_unique<core::TieredIndex>(
            *stack.index, profile, kRho, std::move(topts));
        core::OnlineUpdater::Options uopts;
        uopts.rho = kRho;
        stack.updater = std::make_unique<core::OnlineUpdater>(
            *stack.tiered, uopts, profile.meanWorkHitRate(kRho));
        stack.engine =
            core::EngineBuilder(*stack.tiered)
                .updater(stack.updater.get())
                .defaultK(kTopK)
                .defaultNprobe(kNprobe)
                .searchThreads(kSearchThreads)
                .batching({.maxBatch = 32,
                           .timeoutSeconds = 1e-3,
                           .maxQueue = 256})
                .degradation({.enable = true,
                              .nprobeFloor = 8,
                              .queuePressure = 2.0})
                .tenantIsolation(tenants)
                .tenantClass({.id = {kPremium},
                              .name = "premium",
                              .share = 0.3,
                              .weight = 4.0,
                              .slo = {.missRateTarget = 0.01,
                                      .p99TargetSeconds = kLimit},
                              .degradable = false})
                .tenantClass({.id = {kStandard},
                              .name = "standard",
                              .share = 0.4,
                              .weight = 2.0})
                .tenantClass({.id = {kFlood},
                              .name = "flood",
                              .share = 0.3,
                              .weight = 1.0})
                .autopilot(pilot)
                .build();
        warmUp(*stack.engine, warm, warm.size() / kDim);
        setups.push_back(secondsBetween(t0, Clock::now()));
        loads.push_back(secondsBetween(t0, t1));
        opens.push_back(secondsBetween(t1, t2));
        if (opts.trace && rep + 1 == kSetups)
            tracer.record({"IndexStore::load", 0, tracer.newId(), 0, 0.0,
                           secondsBetween(t0, t1)});
    }
    core::RetrievalEngine &engine = *stack.engine;
    load.beginMeasuring();
    const core::TieredIndex &tiered = *engine.tiered();
    const auto tiered0 = tiered.stats();
    const auto engine0 = engine.stats();

    const double start = load.now() + 0.01;
    std::vector<double> cycles;
    std::thread control([&] {
        for (int c = 1; c <= kControlCycles; ++c) {
            std::this_thread::sleep_until(
                load.origin +
                toDuration(start + horizon * c / (kControlCycles + 1)));
            const double t0 = load.now();
            engine.autopilot()->runControlCycle();
            const double t1 = load.now();
            cycles.push_back(t1 - t0);
            tracer.record({"runControlCycle", 0, tracer.newId(), 0, t0, t1});
        }
    });
    std::vector<double> due(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i)
        due[i] = start + reqs[i].atSeconds;
    load.openLoop(engine, due, [&](std::size_t j, RequestRecord &rec) {
        rec.query = static_cast<std::uint32_t>(j);
        rec.tenant = static_cast<std::uint32_t>(reqs[j].tenant.value);
        return trace.request(j);
    });
    control.join();
    engine.drain();
    stack.updater->waitForRebuild();
    load.sampleRss();
    const auto engine1 = engine.stats();
    const auto tiered1 = tiered.stats();
    // A generation retired while a batch still pinned it waits in limbo
    // for the next swap. At quiescence that swap must free everything:
    // a reader that never left its epoch would keep it pinned.
    if (tiered1.pendingReclaims != 0) {
        const auto bitmap = stack.tiered->hotBitmap();
        std::vector<cluster_id_t> hot;
        for (std::size_t c = 0; c < bitmap.size(); ++c)
            if (bitmap[c])
                hot.push_back(static_cast<cluster_id_t>(c));
        stack.tiered->repartition(std::move(hot));
    }

    Reference ref(index,
                  [&](std::uint32_t q) { return reqs[q].query.data(); });
    checkResponses(load.log, ref, out);
    checkAccounting(engine0, engine1, load.log, out);
    if (tiered.stats().pendingReclaims != 0)
        out.errors.push_back("epoch limbo not drained at quiescence");
    out.attempted = load.log.size();

    // --- end-to-end ---------------------------------------------------
    const Slice all{load.log, 0, load.log.size()};
    const auto seconds = timeWindows(load.log, start, 1.0);
    std::vector<Slice> calm, flooded;
    for (const Slice &w : seconds) {
        const double t0 =
            start + std::floor(load.log[w.begin].due - start);
        const double fs = start + kFloodStart * horizon;
        const double fe = start + kFloodEnd * horizon;
        if (t0 >= fs && t0 + 1.0 <= fe)
            flooded.push_back({w.log, w.begin, w.end, kFlood});
        else if (t0 + 1.0 <= fs || t0 >= fe)
            calm.push_back(w);
    }
    const auto premium_windows = timeWindows(load.log, start, 4.0);
    std::vector<std::uint32_t> rq, rn;
    for (std::size_t i = 0; i < load.log.size() && rq.size() < kLayerSample;
         i += 16)
        if (load.log[i].outcome == Outcome::kServed) {
            rq.push_back(load.log[i].query);
            rn.push_back(load.log[i].nprobe);
        }
    m.e2e("setup_s", median(setups), "s");
    m.latencyFamily(seconds, calm, flooded, seconds, premium_windows,
                    kPremium);
    m.e2e("max_slo_qps", all.goodput(kLimit, horizon), "1/s");
    m.e2e("slo_attain", all.sloAttain(kLimit), "ratio");
    m.e2e("qps",
          medianOver(seconds, [](const Slice &w) { return w.busyRate(); }),
          "1/s");
    m.e2e("served_ratio",
          static_cast<double>(all.count(Outcome::kServed)) /
              static_cast<double>(load.log.size()),
          "ratio");
    m.e2e("recall_at_10", recallAt10(ref, rq, rn, kNlist), "ratio");
    m.e2e("rss_mb", load.rssPeak, "MiB");
    std::printf("trace: %zu requests (%zu premium, %zu standard, %zu "
                "flood); served %zu, expired %zu, rejected %zu, degraded "
                "%zu; %zu repartitions\n",
                reqs.size(), trace.countForTenant({kPremium}),
                trace.countForTenant({kStandard}),
                trace.countForTenant({kFlood}), engine1.served,
                engine1.expired, engine1.rejected, engine1.degradedServed,
                tiered1.repartitions - tiered0.repartitions);

    const std::size_t behind = windowsBehind(seconds, kBehindSeconds);
    if (behind)
        std::printf("VALIDITY: generator fell behind its schedule in %zu "
                    "of %zu one-second windows (lag p99 > %.1f ms)\n",
                    behind, seconds.size(), kBehindSeconds * 1e3);
    if (opts.trace) {
        m.requestLayers({all}, load);
        m.layer("driver.sent", static_cast<double>(load.log.size()));
        m.layer("driver.behind", static_cast<double>(behind));
        m.engineLayers(engine1, engine);
        m.tieredLayers(tiered0, tiered1);
        m.tenantLayers(engine1, {{kPremium, "premium"},
                                 {kStandard, "standard"},
                                 {kFlood, "flood"}});
        m.layer("storage.load_s", median(loads));
        m.layer("storage.mmap_open_s", median(opens));
        m.layer("storage.cold_resident_frac",
                tiered1.coldBytes ? static_cast<double>(
                                        tiered1.coldResidentBytes) /
                                        static_cast<double>(tiered1.coldBytes)
                                  : 0.0);
        m.layer("control.cycle_ms_p50", median(cycles) * 1e3);
        m.layer("control.cycle_ms_max",
                *std::max_element(cycles.begin(), cycles.end()) * 1e3);
        m.layer("control.repartitions",
                static_cast<double>(engine1.autopilotRepartitions));
        std::vector<float> sample;
        for (std::size_t i = 0; i < kLayerSample && i < reqs.size(); ++i)
            sample.insert(sample.end(), reqs[i * (reqs.size() / kLayerSample)]
                                            .query.begin(),
                          reqs[i * (reqs.size() / kLayerSample)].query.end());
        m.vecsearchLayers(index, sample, kNprobe, tracer, load);
        m.tieredPassLayers(tiered, sample, kNprobe, engine1.meanBatchSize,
                           tracer, load);
        m.traceLayers(tracer);
        writeTrace(tracer, opts);
    }
    stack.reset();
    std::filesystem::remove(artifact);
    return out;
}

} // namespace

RunResult
runWorkload(const RunOptions &opts)
{
    if (opts.workload == "skew_tiered")
        return runSkewTiered(opts);
    if (opts.workload == "flat_open")
        return runFlatOpen(opts);
    if (opts.workload == "tenant_drift")
        return runTenantDrift(opts);
    throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

} // namespace perfbench
