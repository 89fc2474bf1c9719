/**
 * @file
 * clite_e2e: the end-to-end benchmark driver.
 *
 *   clite_e2e --workload=NAME [--seed=N] [--threads=2] [--seconds=30]
 *             [--trace=PATH] [--json=PATH] [--gate]
 *
 * Runs one workload (workloads.h) as a closed loop on one driver thread
 * for --seconds, and at least kMinSteps steps, and prints one JSON
 * object: the end-to-end metrics (host time measured with tracing off),
 * the quality metrics, the attempted/failed counts and the machine
 * context. Invariants are
 * checked after every step; a failed check prints "correct": false and
 * exits 3.
 *
 * --trace=PATH is the traced run: first a thread-scaling sweep (a
 * 30-step prefix at 1, 2 and 4 threads, whose digests and quality must
 * agree), then the full run with spans recorded around every call into
 * the library and the outside-in layer probes, written to PATH as a
 * Chrome trace. Its per-layer metrics go under "layers".
 *
 * --gate is the correctness gate alone: a 10-step prefix at 1 thread and
 * at --threads, whose digests and quality metrics must be identical.
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/thread_pool.h"
#include "tracer.h"
#include "workloads.h"

namespace {

using namespace e2e;

/**
 * Cold set-ups per timed run in child processes (ColdSetups), besides
 * the run's own; setup_s is the median of all of them.
 */
constexpr int kColdSetups = 20;
/**
 * Steps every timed run makes, however long that takes: p90 then has at
 * least ten samples beyond it. The quality metrics, the digest and the
 * peak RSS are read right after this step, so that they measure the same
 * work whatever the host's speed (the fleets' heaps grow with the
 * windows run).
 */
constexpr int kMinSteps = 100;
/** A timed run still short of kMinSteps after this long fails. */
constexpr double kMaxRunSeconds = 150.0;
constexpr int kSweepSteps = 30;
constexpr int kGateSteps = 10;

double
elapsedMs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/** Linear-interpolated quantile (q in [0, 1]). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    int threads = 2;
    int seconds = 30;
    std::string trace_path;
    std::string json_path;
    bool gate = false;
};

/**
 * How long a pass runs: exactly @c steps steps, or, when @c seconds is
 * positive, until @c seconds have passed and at least kMinSteps steps
 * are done.
 */
struct RunLength
{
    int steps = 0;
    double seconds = 0.0;
};

/** Everything one pass over a workload produced. */
struct RunResult
{
    std::vector<double> step_ms;
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
    uint64_t windows = 0;
    double setup_s = 0.0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    Quality quality;
    std::string digest;
    double peak_rss_mb = 0.0;
    MetricMap layers;
};

double
cpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) * 1e3 + double(ts.tv_nsec) / 1e6;
}

int
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return CPU_COUNT(&set);
    return int(std::thread::hardware_concurrency());
}

/**
 * Peak resident set of this process image (VmHWM). ru_maxrss is no use
 * here: Linux carries it across exec, so it never reads below the peak
 * of the process that launched the driver.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // reported in kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

/** Build workload @p name and time its set-up (seconds). */
std::pair<double, std::unique_ptr<Workload>>
timedSetup(const std::string& name, uint64_t seed, int quality_steps,
           Tracer* tracer)
{
    std::unique_ptr<Workload> w =
        makeWorkload(name, seed, quality_steps, tracer);
    const auto t0 = std::chrono::steady_clock::now();
    w->setup();
    return {elapsedMs(t0) / 1e3, std::move(w)};
}

/**
 * Cold set-ups, one per child process. A set-up runs once per process
 * and pays for first-touch memory and the library's lazy initialization,
 * so a second set-up inside one process would time a warm copy instead.
 * The children are forked while the driver still has one thread, and
 * each waits on a pipe until runNext() releases it. The run releases
 * them one at a time between steps, spread over the run, and waits for
 * each to finish, so that their median meets the same host conditions
 * as the steps and nothing else runs while one is timed.
 */
class ColdSetups
{
  public:
    ColdSetups(const Args& a, int n)
    {
        children_.reserve(size_t(n));
        try {
            for (int k = 0; k < n; ++k)
                spawn(a);
        } catch (...) {
            for (Child& c : children_)
                reap(c);
            throw;
        }
    }

    /** Closing a child's pipe ends it unreleased; every child is reaped. */
    ~ColdSetups()
    {
        for (Child& c : children_)
            reap(c);
    }

    ColdSetups(const ColdSetups&) = delete;
    ColdSetups& operator=(const ColdSetups&) = delete;

    size_t remaining() const { return children_.size() - times_.size(); }
    const std::vector<double>& times() const { return times_; }

    /** Release the next child and wait for its set-up time. */
    void
    runNext()
    {
        Child& c = children_[times_.size()];
        const char go = 1;
        double s = -1.0;
        const bool ok = write(c.go, &go, 1) == 1 &&
                        read(c.back, &s, sizeof(s)) == ssize_t(sizeof(s));
        if (!reap(c) || !ok || s < 0.0)
            throw std::runtime_error("cold set-up in a child process failed");
        times_.push_back(s);
    }

  private:
    struct Child
    {
        pid_t pid;
        int go;   ///< Write end: one byte releases the child.
        int back; ///< Read end: the child's set-up time.
    };

    void
    spawn(const Args& a)
    {
        int go[2], back[2];
        if (pipe(go) != 0)
            throw std::runtime_error("pipe failed");
        if (pipe(back) != 0) {
            close(go[0]);
            close(go[1]);
            throw std::runtime_error("pipe failed");
        }
        const pid_t pid = fork();
        if (pid == 0)
            runChild(a, go[0], back[1]);
        close(go[0]);
        close(back[1]);
        if (pid < 0) {
            close(go[1]);
            close(back[0]);
            throw std::runtime_error("fork failed");
        }
        children_.push_back({pid, go[1], back[0]});
    }

    [[noreturn]] void
    runChild(const Args& a, int go, int back)
    {
        // Without the earlier children's pipe ends, a child sees EOF as
        // soon as the driver closes its own or dies.
        for (const Child& c : children_) {
            close(c.go);
            close(c.back);
        }
        char byte = 0;
        if (read(go, &byte, 1) != 1)
            _exit(1);
        double s = -1.0;
        try {
            clite::setGlobalThreadCount(a.threads);
            s = timedSetup(a.workload, a.seed, kMinSteps, nullptr).first;
        } catch (...) {
        }
        const bool sent = write(back, &s, sizeof(s)) == ssize_t(sizeof(s));
        _exit(sent && s >= 0.0 ? 0 : 1);
    }

    /** Close @p c's pipe and wait for it; true if it exited with 0. */
    static bool
    reap(Child& c)
    {
        if (c.pid <= 0)
            return false;
        close(c.go);
        close(c.back);
        int status = 0;
        const bool ok = waitpid(c.pid, &status, 0) == c.pid &&
                        WIFEXITED(status) && WEXITSTATUS(status) == 0;
        c.pid = 0;
        return ok;
    }

    std::vector<Child> children_;
    std::vector<double> times_;
};

/**
 * One pass over workload @p name. When @p cold is given, its set-ups are
 * run spread over the pass, and setup_s is their median together with
 * the pass's own set-up; else it is the pass's own.
 */
RunResult
runWorkload(const std::string& name, uint64_t seed, RunLength length,
            Tracer* tracer, ColdSetups* cold = nullptr)
{
    const bool timed = length.seconds > 0.0;
    const int quality_steps = timed ? kMinSteps : length.steps;
    RunResult out;
    auto [setup_s, w] = timedSetup(name, seed, quality_steps, tracer);
    const size_t cold_total = cold != nullptr ? cold->remaining() : 0;

    const auto start = std::chrono::steady_clock::now();
    for (int i = 0;; ++i) {
        const double elapsed_s = elapsedMs(start) / 1e3;
        if (timed ? i >= kMinSteps && elapsed_s >= length.seconds
                  : i >= length.steps)
            break;
        if (timed && elapsed_s >= kMaxRunSeconds)
            throw std::runtime_error(
                "fewer than " + std::to_string(kMinSteps) + " steps in " +
                std::to_string(int(kMaxRunSeconds)) + " s");
        if (cold != nullptr && cold->remaining() > 0 &&
            elapsed_s >= double(cold_total - cold->remaining()) *
                              length.seconds / double(cold_total))
            cold->runNext();
        const double cpu0 = cpuMs();
        const auto t0 = std::chrono::steady_clock::now();
        {
            ScopedSpan s(tracer, "step");
            w->step(i);
        }
        const double ms = elapsedMs(t0);
        out.cpu_ms += cpuMs() - cpu0;
        out.step_ms.push_back(ms);
        out.wall_ms += ms;
        w->afterStep(i);
        out.windows += w->stepWindows();
        if (i + 1 == quality_steps) {
            out.quality = w->quality();
            out.digest = w->digest();
            out.peak_rss_mb = peakRssMb();
        }
    }
    std::vector<double> setups = {setup_s};
    if (cold != nullptr) {
        while (cold->remaining() > 0)
            cold->runNext();
        setups.insert(setups.end(), cold->times().begin(),
                      cold->times().end());
    }
    out.setup_s = quantile(setups, 0.5);
    out.attempted = w->attempted();
    out.failed = w->failed();
    if (tracer != nullptr)
        w->layerMetrics(*tracer, int(out.step_ms.size()), out.layers);
    return out;
}

/** Quality metrics, printed exactly, for determinism comparisons. */
std::string
fingerprint(const RunResult& r)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s q=%.17g bg=%.17g v=%.17g w=%.17g "
                  "t=%.17g f=%llu/%llu",
                  r.digest.c_str(), r.quality.qos_met_frac, r.quality.bg_perf,
                  r.quality.violating_window_frac,
                  r.quality.windows_per_search, r.quality.windows_to_qos,
                  (unsigned long long)r.failed,
                  (unsigned long long)r.attempted);
    return buf;
}

void
requireSame(const RunResult& a, int ta, const RunResult& b, int tb)
{
    if (fingerprint(a) != fingerprint(b))
        throw CorrectnessError(
            "results differ across thread counts: " + std::to_string(ta) +
            " threads -> " + fingerprint(a) + "; " + std::to_string(tb) +
            " threads -> " + fingerprint(b));
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

void
writeMetrics(std::ostream& os, const MetricMap& m)
{
    os << "{";
    bool first = true;
    for (const auto& [name, metric] : m) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", metric.value);
        os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
           << ", \"unit\": \"" << metric.unit << "\"}";
        first = false;
    }
    os << "}";
}

/** Every end-to-end metric. */
MetricMap
endToEnd(const RunResult& r)
{
    MetricMap m;
    m["step_ms_p50"] = {quantile(r.step_ms, 0.5), "ms"};
    m["step_ms_p90"] = {quantile(r.step_ms, 0.9), "ms"};
    m["node_windows_per_s"] = {
        r.wall_ms > 0 ? double(r.windows) / (r.wall_ms / 1e3) : 0.0, "1/s"};
    m["setup_s"] = {r.setup_s, "s"};
    m["steps"] = {double(r.step_ms.size()), "count"};
    m["peak_rss_mb"] = {r.peak_rss_mb, "MB"};
    m["qos_met_frac"] = {r.quality.qos_met_frac, "fraction"};
    m["bg_perf"] = {r.quality.bg_perf, "fraction"};
    m["violating_window_frac"] = {r.quality.violating_window_frac,
                                  "fraction"};
    m["windows_per_search"] = {r.quality.windows_per_search, "windows"};
    if (r.quality.windows_to_qos >= 0.0)
        m["windows_to_qos"] = {r.quality.windows_to_qos, "windows"};
    m["fail_frac"] = {
        r.attempted > 0 ? double(r.failed) / double(r.attempted) : 0.0,
        "fraction"};
    return m;
}

void
emit(const Args& a, const std::string& body)
{
    std::ostringstream os;
    os << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
       << ", \"threads\": " << a.threads << ", \"nproc\": " << nproc()
       << ", \"compiler\": \"" << E2E_COMPILER << "\", \"build_type\": \""
       << E2E_BUILD_TYPE << "\", " << body << "}";
    std::cout << os.str() << std::endl;
    if (!a.json_path.empty()) {
        std::ofstream f(a.json_path);
        f << os.str() << "\n";
        if (!f)
            throw std::runtime_error("cannot write " + a.json_path);
    }
}

int
runGate(const Args& a)
{
    clite::setGlobalThreadCount(1);
    const RunLength gate{kGateSteps, 0.0};
    RunResult serial = runWorkload(a.workload, a.seed, gate, nullptr);
    clite::setGlobalThreadCount(a.threads);
    RunResult parallel = runWorkload(a.workload, a.seed, gate, nullptr);
    requireSame(serial, 1, parallel, a.threads);
    emit(a, "\"correct\": true, \"gate\": \"pass\", \"steps\": " +
                std::to_string(kGateSteps) + ", \"digest\": \"" +
                parallel.digest + "\"");
    return 0;
}

int
runBenchmark(const Args& a)
{
    const RunLength length{0, double(a.seconds)};
    // Forked first, while no pool thread exists yet.
    ColdSetups cold(a, kColdSetups);
    MetricMap layers;
    RunResult result;
    if (a.trace_path.empty()) {
        clite::setGlobalThreadCount(a.threads);
        result = runWorkload(a.workload, a.seed, length, nullptr, &cold);
    } else {
        // Thread-scaling sweep (untraced) over a prefix; every thread
        // count must reach identical decisions. The traced run's own
        // thread count goes last, right before the traced run, so that
        // both start from the same warm heap when trace.overhead_frac
        // compares them.
        const int prefix = kSweepSteps;
        std::vector<int> order = {1, 2, 4};
        std::stable_partition(order.begin(), order.end(),
                              [&](int t) { return t != a.threads; });
        std::vector<RunResult> sweep;
        double untraced_p50 = 0.0;
        for (int t : order) {
            clite::setGlobalThreadCount(t);
            sweep.push_back(runWorkload(a.workload, a.seed,
                                        RunLength{prefix, 0.0}, nullptr));
            const RunResult& r = sweep.back();
            requireSame(sweep.front(), order.front(), r, t);
            const std::string tag = ".t" + std::to_string(t);
            layers["scaling.step_ms" + tag] = {quantile(r.step_ms, 0.5), "ms"};
            layers["scaling.cpu_per_wall" + tag] = {r.cpu_ms / r.wall_ms,
                                                    "ratio"};
            if (t == a.threads)
                untraced_p50 = quantile(r.step_ms, 0.5);
        }
        clite::setGlobalThreadCount(a.threads);
        Tracer tracer;
        result = runWorkload(a.workload, a.seed, length, &tracer, &cold);
        layers.insert(result.layers.begin(), result.layers.end());
        const double steps = double(result.step_ms.size());
        const double window_ms = result.wall_ms / steps;
        layers["cluster.window_ms"] = {window_ms, "ms"};
        layers["cluster.window_cpu_ms"] = {result.cpu_ms / steps, "ms"};
        layers["cluster.cpu_per_wall"] = {result.cpu_ms / result.wall_ms,
                                          "ratio"};
        layers["cluster.truth_share"] = {
            layers["cluster.truth_ms"].value / window_ms, "fraction"};
        const std::vector<double> head(result.step_ms.begin(),
                                       result.step_ms.begin() + prefix);
        layers["trace.overhead_frac"] = {
            untraced_p50 > 0 ? quantile(head, 0.5) / untraced_p50 : 0.0,
            "ratio"};
        layers["trace.spans"] = {double(tracer.spans().size()), "count"};
        if (!tracer.writeChrome(a.trace_path))
            throw std::runtime_error("cannot write " + a.trace_path);
    }

    std::ostringstream body;
    body << "\"correct\": true, \"attempted\": " << result.attempted
         << ", \"failed\": " << result.failed
         << ", \"steps\": " << result.step_ms.size() << ", \"digest\": \""
         << result.digest << "\", \"metrics\": ";
    writeMetrics(body, endToEnd(result));
    body << ", \"layers\": ";
    writeMetrics(body, layers);
    emit(a, body.str());
    return 0;
}

bool
parseArgs(int argc, char** argv, Args& a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const size_t eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = std::stoull(val);
        else if (key == "--threads")
            a.threads = std::stoi(val);
        else if (key == "--seconds")
            a.seconds = std::stoi(val);
        else if (key == "--trace")
            a.trace_path = val;
        else if (key == "--json")
            a.json_path = val;
        else if (key == "--gate" && val.empty())
            a.gate = true;
        else
            return false;
    }
    const std::vector<std::string>& names = workloadNames();
    const bool traced_threads_ok = a.trace_path.empty() || a.threads == 1 ||
                                   a.threads == 2 || a.threads == 4;
    return std::find(names.begin(), names.end(), a.workload) != names.end() &&
           a.threads >= 1 && a.seconds >= 1 && traced_threads_ok;
}

} // namespace

int
main(int argc, char** argv)
{
    Args a;
    try {
        if (!parseArgs(argc, argv, a)) {
            std::cerr << "usage: clite_e2e --workload=NAME [--seed=N] "
                         "[--threads=N] [--seconds=S] [--trace=PATH] "
                         "[--json=PATH] [--gate]\n  workloads:";
            for (const std::string& n : workloadNames())
                std::cerr << " " << n;
            std::cerr << "\n  (--trace needs --threads of 1, 2 or 4)\n";
            return 2;
        }
    } catch (const std::exception& e) {
        std::cerr << "clite_e2e: bad argument: " << e.what() << "\n";
        return 2;
    }
    // Parking and eviction warnings are expected in these workloads and
    // would only add stderr I/O to the timed steps.
    clite::Log::setLevel(clite::LogLevel::Off);
    try {
        return a.gate ? runGate(a) : runBenchmark(a);
    } catch (const CorrectnessError& e) {
        emit(a, "\"correct\": false, \"error\": \"" + jsonEscape(e.what()) +
                    "\"");
        return 3;
    } catch (const std::exception& e) {
        std::cerr << "clite_e2e: " << e.what() << "\n";
        return 1;
    }
}
