#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <random>
#include <sstream>
#include <thread>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#if defined(__linux__)
#include <sched.h>
#endif

namespace perfbench
{

double
quantileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double n = static_cast<double>(sorted.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

std::size_t
minSamplesFor(double q, std::size_t min_beyond)
{
    // Beyond the nearest-rank quantile lie n - ceil(q n) samples.
    std::size_t n = 1;
    while (n - static_cast<std::size_t>(std::ceil(
                   q * static_cast<double>(n))) <
           min_beyond)
        ++n;
    return n;
}

std::optional<double>
tailQuantile(std::vector<double> samples, double q,
             std::size_t min_beyond)
{
    if (samples.size() < minSamplesFor(q, min_beyond))
        return std::nullopt;
    std::sort(samples.begin(), samples.end());
    return quantileSorted(samples, q);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
quartileSpread(std::vector<double> values)
{
    const std::size_t n = values.size();
    if (n < 2)
        return 0.0;
    std::sort(values.begin(), values.end());
    // statistics.quantiles(n=4, method="exclusive"): position
    // j * (n + 1) / 4, 1-based, linearly interpolated.
    const auto at = [&](int j) {
        const double pos = j * static_cast<double>(n + 1) / 4.0;
        const double lo = std::floor(pos);
        const std::size_t i = static_cast<std::size_t>(
            std::clamp(lo, 1.0, static_cast<double>(n - 1)));
        const double frac = pos - static_cast<double>(i);
        return values[i - 1] + frac * (values[i] - values[i - 1]);
    };
    const double med = median(values);
    return med != 0.0 ? (at(3) - at(1)) / std::abs(med) : 0.0;
}

std::vector<double>
poissonSchedule(double rate, double seconds, std::uint64_t seed)
{
    std::mt19937_64 gen(seed);
    std::exponential_distribution<double> gap(rate);
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
    for (double t = gap(gen); t < seconds; t += gap(gen))
        out.push_back(t);
    return out;
}

std::optional<std::size_t>
maxSloRung(const std::vector<Rung> &rungs, double target)
{
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < rungs.size(); ++i) {
        const Rung &r = rungs[i];
        const bool backlog_ok =
            static_cast<double>(r.backlogAtEnd) <= r.backlogAllowance;
        if (r.sent > 0 && r.sloAttain >= target && backlog_ok &&
            (!best || r.rate > rungs[*best].rate))
            best = i;
    }
    return best;
}

void
Tracer::record(const Span &span)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lk(mutex_);
    spans_.push_back(span);
}

std::uint64_t
Tracer::newId()
{
    std::lock_guard<std::mutex> lk(mutex_);
    return nextId_++;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return spans_;
}

void
Tracer::writeTraceEvents(std::ostream &os) const
{
    const std::vector<Span> all = spans();
    os << "{\"traceEvents\":[";
    os << std::setprecision(3) << std::fixed;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.traceId
           << ",\"ts\":" << s.start * 1e6
           << ",\"dur\":" << (s.end - s.start) * 1e6
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << "}}";
    }
    os << "\n]}\n";
}

std::map<std::string, SelfTime>
selfTimes(const std::vector<Span> &spans)
{
    std::map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].push_back(&s);
    std::map<std::string, SelfTime> out;
    for (const Span &s : spans) {
        std::vector<std::pair<double, double>> iv;
        if (const auto it = children.find(s.id); it != children.end())
            for (const Span *c : it->second)
                iv.emplace_back(std::max(c->start, s.start),
                                std::min(c->end, s.end));
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, hi = s.start;
        for (const auto &[a, b] : iv) {
            const double lo = std::max(a, hi);
            if (b > lo) {
                covered += b - lo;
                hi = b;
            }
        }
        SelfTime &st = out[s.name];
        st.seconds += std::max(0.0, (s.end - s.start) - covered);
        ++st.count;
    }
    return out;
}

namespace
{

std::string
readCpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

std::string
readAffinity()
{
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return "unknown";
    std::string out;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) {
            if (!out.empty())
                out += ',';
            out += std::to_string(c);
        }
    return out;
#else
    return "unknown";
#endif
}

/** Spin iterations completed by @p threads threads in @p seconds. */
double
spinRate(unsigned threads, double seconds)
{
    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> counts(threads, 0);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            std::uint64_t n = 0, x = t + 1;
            while (!stop.load(std::memory_order_relaxed)) {
                for (int i = 0; i < 1024; ++i)
                    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
                ++n;
            }
            counts[t] = n + (x == 0);
        });
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop = true;
    for (auto &th : pool)
        th.join();
    double total = 0.0;
    for (auto c : counts)
        total += static_cast<double>(c);
    return total / seconds;
}

} // namespace

Fingerprint
probeHost(const std::string &simd, const std::string &build_type,
          const std::string &commit, std::uint64_t seed)
{
    Fingerprint fp;
    fp.cpuModel = readCpuModel();
    fp.nproc = std::max(1u, std::thread::hardware_concurrency());
    fp.affinity = readAffinity();
    const double one = spinRate(1, 0.08);
    const double all = spinRate(fp.nproc, 0.08);
    fp.parallelism = one > 0.0 ? all / one : 0.0;
    fp.simd = simd;
    fp.buildType = build_type;
    fp.commit = commit;
    fp.seed = seed;
    return fp;
}

std::string
toJson(const Fingerprint &fp)
{
    std::ostringstream os;
    os << "{\"cpu\":\"" << fp.cpuModel << "\",\"nproc\":" << fp.nproc
       << ",\"affinity\":\"" << fp.affinity << "\",\"parallelism\":"
       << std::setprecision(3) << fp.parallelism << ",\"simd\":\""
       << fp.simd << "\",\"build\":\"" << fp.buildType
       << "\",\"commit\":\"" << fp.commit << "\",\"seed\":" << fp.seed
       << "}";
    return os.str();
}

double
residentMiB()
{
    std::ifstream is("/proc/self/statm");
    std::size_t size = 0, resident = 0;
    if (!(is >> size >> resident))
        return 0.0;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void
releaseFreeMemory()
{
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
}

std::string
resultLine(bool correct, std::size_t attempted, std::size_t failed,
           const std::map<std::string, Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": ";
        if (std::isfinite(m.value))
            os << std::setprecision(17) << m.value;
        else
            os << "null";
        os << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace perfbench
