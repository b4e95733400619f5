/**
 * @file
 * The end-to-end benchmark: C source or suite specs in, checked job
 * results out, through the public entry points, in process.
 *
 *   bench_main --workload NAME --seed N --seconds S --trace 0|1
 *              [--examples DIR] [--trace-out FILE] [--rev REV]
 *
 * Untraced (--trace 0): one build, one untimed warm-up pass over the
 * seeded request sequence, then a closed loop of requests for S
 * seconds; set-up is the median of from-scratch builds timed in
 * stretches before the warm-up and between parts of the loop. Every
 * end-to-end metric is printed by name with its unit, then one JSON
 * result line.
 *
 * Traced (--trace 1): the same build and warm-up, then four phases of
 * S/4 seconds each: untraced requests, traced requests (spans around
 * the calls into each layer), a replay of the calls the request path
 * makes out of reach, and the workload's own probes. Prints the
 * per-layer metrics, the table of layer shares, and writes the spans.
 *
 * Exit status: 0 when every check passed, 1 when one failed (the
 * result line still prints, with "correct": false), 2 on a usage or
 * set-up error (no result line).
 */
#include <sys/resource.h>

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "support/json.hh"
#include "tracer.hh"
#include "workload.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
namespace json = ximd::json;

/**
 * From-scratch builds behind the reported set-up time: at least
 * kSetupMinBuilds, and as many as kSetupMinSeconds takes. The host's
 * speed changes from one second to the next, so the builds are made in
 * kRounds + 1 stretches, one before the warm-up and one after each of
 * the kRounds parts of the timed section: the median then spans the
 * same phases of the host as the requests.
 */
constexpr unsigned kSetupMinBuilds = 7;
constexpr double kSetupMinSeconds = 1.5;
constexpr unsigned kRounds = 4;
/** Timed requests needed to leave ten samples beyond p90. */
constexpr unsigned kMinRequests = 100;

struct EndToEnd
{
    const char *name;
    const char *unit;
};

constexpr EndToEnd kEndToEnd[] = {
    {"setup_s", "s"},
    {"jobs_per_s", "1/s"},
    {"request_ms_p50", "ms"},
    {"request_ms_p90", "ms"},
    {"sim_cycles", "cycles"},
    {"sim_cycles_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

struct PerLayer
{
    const char *name;
    const char *unit;
    const char *span; ///< Median of this span's duration, or null.
    double scale;     ///< ns -> unit.
};

constexpr PerLayer kPerLayer[] = {
    {"frontend.parse_lower_ms", "ms", "frontend.compileC", 1e-6},
    {"sched.compile_ms", "ms", "sched.compile", 1e-6},
    {"sched.exact_nodes", "count", nullptr, 0},
    {"sched.exact_proven_ratio", "ratio", nullptr, 0},
    {"sched.rows", "count", nullptr, 0},
    {"sched.spill_ops", "count", nullptr, 0},
    {"analysis.verify_ms", "ms", "analysis.verify", 1e-6},
    {"asm.roundtrip_ms", "ms", "asm.roundtrip", 1e-6},
    {"isa.prepare_ms", "ms", "isa.prepare", 1e-6},
    {"core.setup_us_p50", "us", "core.machine", 1e-3},
    {"core.hash_us_p50", "us", "core.hash", 1e-3},
    {"core.stats_json_us_p50", "us", "core.stats_json", 1e-3},
    {"core.check_us_p50", "us", "core.check", 1e-3},
    {"core.free_us_p50", "us", "core.free", 1e-3},
    {"core.run_ms", "ms", "core.run", 1e-6},
    {"core.ns_per_cycle.ximd", "ns", nullptr, 0},
    {"core.ns_per_cycle.vliw", "ns", nullptr, 0},
    {"core.mem_touched_ratio", "ratio", nullptr, 0},
    {"farm.busy_ratio", "ratio", nullptr, 0},
    {"farm.contention_ratio", "ratio", nullptr, 0},
    {"batch.run_ms", "ms", "batch.run", 1e-6},
    {"batch.demoted_ratio", "ratio", nullptr, 0},
    {"service.submit_us_p50", "us", "service.submit", 1e-3},
    {"service.results_ms_p50", "ms", "service.results", 1e-6},
    {"service.response_bytes", "bytes", nullptr, 0},
    {"service.latency_drift_ratio", "ratio", nullptr, 0},
    {"service.rss_growth_kb_per_req", "KB", nullptr, 0},
    {"trace.jobs_per_s_ratio", "ratio", nullptr, 0},
};

const char *const kLayers[] = {"frontend", "sched", "analysis", "asm",
                               "isa",      "core",  "farm",     "batch",
                               "service",  "bench"};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string examples = "examples/c";
    std::string traceOut;
    std::string rev = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "bench_main: " << why
              << "\nusage: bench_main --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--examples DIR] "
                 "[--trace-out FILE] [--rev REV]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string val = argv[++i];
        try {
            if (key == "--workload")
                a.workload = val;
            else if (key == "--seed")
                a.seed = std::stoull(val);
            else if (key == "--seconds")
                a.seconds = std::stod(val);
            else if (key == "--trace")
                a.trace = std::stoi(val) != 0;
            else if (key == "--examples")
                a.examples = val;
            else if (key == "--trace-out")
                a.traceOut = val;
            else if (key == "--rev")
                a.rev = val;
            else
                usage("unknown option " + key);
        } catch (const std::logic_error &) {
            usage("bad value for " + key + ": " + val);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

/** Resident set size now, in KB. */
double
rssKb()
{
    std::ifstream f("/proc/self/statm");
    double pages = 0, resident = 0;
    f >> pages >> resident;
    return resident * 4.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/** Least-squares slope of @p y over its index. */
double
slope(const std::vector<double> &y)
{
    const double n = static_cast<double>(y.size());
    if (n < 2)
        return 0.0;
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (std::size_t i = 0; i < y.size(); ++i) {
        const double x = static_cast<double>(i);
        sx += x;
        sy += y[i];
        sxx += x * x;
        sxy += x * y[i];
    }
    return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

/** Totals of a stretch of closed-loop requests. */
struct Loop
{
    std::uint64_t requests = 0;
    std::uint64_t jobs = 0;
    std::uint64_t failed = 0;
    std::uint64_t cycles = 0;
    double wallS = 0;
    /** Peak RSS when the kMinRequests-th request was done. */
    double peakRssMb = 0;
    std::vector<double> latencyMs;
    std::vector<double> rss;

    double jobsPerS() const { return wallS > 0 ? jobs / wallS : 0.0; }
};

/**
 * Closed loop over the seeded sequence, starting at request @p next,
 * for @p seconds (and at least @p minRequests), added to @p out. A
 * request whose outputs differ from its warm-up run counts all its
 * jobs as failed. Peak RSS is read after kMinRequests requests, not at
 * the end, so a memory figure that grows per request does not follow
 * the host's speed.
 */
void
runLoop(Workload &w, const std::vector<RequestResult> &expected,
        unsigned &next, double seconds, unsigned minRequests,
        Tracer *t, bool sampleRss, Loop &out)
{
    const std::int64_t start = nowNs();
    const std::uint64_t first = out.requests;
    for (;;) {
        const unsigned k = next % w.passLength();
        const std::int64_t t0 = nowNs();
        RequestResult r;
        if (t) {
            t->request = next;
            Scope s(t, "bench.request");
            r = w.request(k, t);
        } else {
            r = w.request(k, nullptr);
        }
        out.latencyMs.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
        ++next;
        ++out.requests;
        out.jobs += r.jobs;
        out.cycles += r.cycles;
        const RequestResult &e = expected[k];
        out.failed += (r.fingerprint != e.fingerprint ||
                       r.cycles != e.cycles || r.jobs != e.jobs)
                          ? r.jobs
                          : r.failed;
        if (sampleRss)
            out.rss.push_back(rssKb());
        if (out.requests == kMinRequests)
            out.peakRssMb = peakRssMb();
        if (secondsSince(start) >= seconds &&
            out.requests - first >= minRequests)
            break;
    }
    out.wallS += secondsSince(start);
}

/**
 * Times from-scratch builds of the workload. Each build gets a fresh
 * workload object; the previous one is destroyed first, untimed, so
 * every timed build starts from the same allocator state. The object
 * that serves the requests is a different one and lives on.
 */
class SetupSampler
{
  public:
    explicit SetupSampler(const Args &args) : args_(args) {}

    /** Build for @p seconds, at least once and until @p minBuilds. */
    void
    sample(double seconds, std::size_t minBuilds)
    {
        const std::int64_t start = nowNs();
        const std::size_t first = samples_.size();
        while (samples_.size() == first || samples_.size() < minBuilds ||
               secondsSince(start) < seconds) {
            w_.reset();
            w_ = makeWorkload(args_.workload, args_.examples);
            const std::int64_t t0 = nowNs();
            w_->build(args_.seed);
            samples_.push_back(secondsSince(t0));
        }
        w_.reset();
    }

    const std::vector<double> &samples() const { return samples_; }

  private:
    const Args &args_;
    std::unique_ptr<Workload> w_;
    std::vector<double> samples_;
};

std::string
fmt(double v)
{
    return json::Value(v).dump(0);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (!perfbench::makeWorkload(args.workload, args.examples))
        usage("unknown workload '" + args.workload + "'");

    try {
        // The workload that serves the requests; its build is the
        // set-up's own warm-up. Untraced runs time further builds in
        // stretches spread over the run (SetupSampler).
        std::unique_ptr<Workload> w =
            makeWorkload(args.workload, args.examples);
        w->build(args.seed);
        SetupSampler setup(args);
        const double stretchS = kSetupMinSeconds / (kRounds + 1);
        if (!args.trace)
            setup.sample(stretchS, 1);

        // Warm-up: one untimed pass over the seeded sequence. Its
        // outputs are what every later repeat must reproduce.
        const unsigned pass = w->passLength();
        std::vector<RequestResult> expected;
        std::uint64_t attempted = 0, failed = 0, passCycles = 0;
        for (unsigned k = 0; k < pass; ++k) {
            expected.push_back(w->request(k, nullptr));
            attempted += expected.back().jobs;
            failed += expected.back().failed;
            passCycles += expected.back().cycles;
        }

        std::cout << "perfbench workload=" << args.workload
                  << " seed=" << args.seed << " seconds=" << args.seconds
                  << " trace=" << (args.trace ? 1 : 0) << "\n"
                  << "request: " << w->describe() << "\n";

        unsigned next = 0;
        std::vector<std::string> why;
        json::Value metrics = json::Value::object();
        json::Value meta = json::Value::object();
        meta.set("nproc", static_cast<std::uint64_t>(
                              std::thread::hardware_concurrency()));
#ifdef __clang__
        meta.set("compiler", "clang " __clang_version__);
#else
        meta.set("compiler", "gcc " __VERSION__);
#endif
        meta.set("build_type", PERFBENCH_BUILD_TYPE);
        meta.set("git_rev", args.rev);
        meta.set("threads", static_cast<std::uint64_t>(w->threads()));
        meta.set("warmup_requests", static_cast<std::uint64_t>(pass));

        if (!args.trace) {
            Loop loop;
            for (unsigned r = 0; r < kRounds; ++r) {
                runLoop(*w, expected, next, args.seconds / kRounds,
                        (kMinRequests + kRounds - 1) / kRounds, nullptr,
                        false, loop);
                setup.sample(stretchS,
                             r + 1 == kRounds ? kSetupMinBuilds : 1);
            }
            const std::vector<double> &setupS = setup.samples();
            meta.set("setup_builds",
                     static_cast<std::uint64_t>(setupS.size()));
            attempted += loop.jobs;
            failed += loop.failed;
            meta.set("timed_requests", loop.requests);
            meta.set("timed_jobs", loop.jobs);
            meta.set("percentile_samples", loop.requests);
            const std::uint64_t post = w->postCheck(why);
            failed += post;
            const double values[] = {
                median(setupS),
                loop.jobsPerS(),
                median(loop.latencyMs),
                percentile(loop.latencyMs, 90),
                static_cast<double>(passCycles),
                static_cast<double>(loop.cycles) / loop.wallS,
                loop.peakRssMb,
            };
            std::cout << "meta " << meta.dump(0) << "\n";
            for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
                json::Value m = json::Value::object();
                m.set("value", values[i]);
                m.set("unit", kEndToEnd[i].unit);
                metrics.set(kEndToEnd[i].name, std::move(m));
                std::cout << "metric " << kEndToEnd[i].name << " "
                          << fmt(values[i]) << " " << kEndToEnd[i].unit
                          << "\n";
            }
            std::cout << "note setup_s is the median of " << setupS.size()
                      << " builds in " << kRounds + 1
                      << " stretches over the run; request percentiles over "
                      << loop.requests << " requests ("
                      << loop.requests / 10 << " beyond p90); sim_cycles "
                      << "is one pass of " << pass << " requests; "
                      << "peak_rss_mb is read after " << kMinRequests
                      << " timed requests\n";
        } else {
            const double phaseS = args.seconds / 4;
            Tracer tracer;
            // A: untraced; B: traced request path.
            Loop untraced, traced;
            runLoop(*w, expected, next, phaseS, 1, nullptr, true,
                    untraced);
            runLoop(*w, expected, next, phaseS, 1, &tracer, true, traced);
            attempted += untraced.jobs + traced.jobs;
            failed += untraced.failed + traced.failed;
            // C: replay of the calls made out of reach.
            std::uint64_t replays = 0;
            if (w->hasReplay()) {
                tracer.phase = "replay";
                const std::int64_t start = nowNs();
                for (unsigned k = 0; secondsSince(start) < phaseS ||
                                     replays == 0;
                     ++k, ++replays) {
                    tracer.request = k;
                    Scope s(&tracer, "bench.replay");
                    w->replay(k % pass, tracer);
                }
            }
            // D: the workload's own probes and counts.
            Metrics layer;
            for (const PerLayer &p : kPerLayer)
                layer[p.name] =
                    p.span ? median(tracer.durations(p.span)) * p.scale
                           : 0.0;
            w->layerMetrics(phaseS, layer);
            layer["trace.jobs_per_s_ratio"] =
                untraced.jobsPerS() > 0
                    ? traced.jobsPerS() / untraced.jobsPerS()
                    : 0.0;
            if (args.workload == "serve-short") {
                std::vector<double> lat = untraced.latencyMs;
                lat.insert(lat.end(), traced.latencyMs.begin(),
                           traced.latencyMs.end());
                std::vector<double> rss = untraced.rss;
                rss.insert(rss.end(), traced.rss.begin(), traced.rss.end());
                const auto n = static_cast<std::ptrdiff_t>(
                    std::max<std::size_t>(1, lat.size() / 10));
                layer["service.latency_drift_ratio"] =
                    median(std::vector<double>(lat.end() - n, lat.end())) /
                    median(std::vector<double>(lat.begin(), lat.begin() + n));
                layer["service.rss_growth_kb_per_req"] = slope(rss);
            }
            failed += w->postCheck(why);

            // Shares of self time, on the decomposed phase and on the
            // request path.
            const char *decomposed = w->hasReplay() ? "replay" : "path";
            Metrics shares;
            for (const char *phase : {"path", decomposed}) {
                const std::string prefix =
                    std::string(phase) == decomposed ? "self." : "path.";
                const auto byLayer = tracer.selfTime(phase, true);
                double total = 0;
                for (const auto &[k, v] : byLayer)
                    total += v;
                for (bool layers : {true, false})
                    for (const auto &[k, v] : tracer.selfTime(phase, layers))
                        shares[prefix + k] = total > 0 ? v / total : 0.0;
            }
            for (const Span &sp : tracer.spans())
                if (!shares.count(std::string("p50_ms.") + sp.name))
                    shares[std::string("p50_ms.") + sp.name] =
                        median(tracer.durations(sp.name)) * 1e-6;
            w->completeShares(shares);
            for (const char *l : kLayers)
                layer[std::string("share.") + l] =
                    share(shares, std::string("self.") + l);

            meta.set("timed_requests",
                     untraced.requests + traced.requests);
            meta.set("untraced_requests", untraced.requests);
            meta.set("traced_requests", traced.requests);
            meta.set("replayed_requests", replays);
            meta.set("spans",
                     static_cast<std::uint64_t>(tracer.spans().size()));
            std::cout << "meta " << meta.dump(0) << "\n";
            std::cout << "layer shares of self time (" << decomposed
                      << " phase"
                      << (w->hasReplay()
                              ? "; replay = the calls the request path "
                                "makes inside Farm::run or the service, "
                                "made here on one thread"
                              : "")
                      << "):\n";
            for (const char *l : kLayers) {
                std::cout << "  " << l << " self="
                          << fmt(share(shares, std::string("self.") + l));
                if (w->hasReplay())
                    std::cout << " path="
                              << fmt(share(shares,
                                           std::string("path.") + l));
                std::cout << "\n";
            }
            if (args.workload == "serve-short")
                std::cout << "  (service = the time a request through "
                             "the service takes beyond the replayed sweep "
                             "expansion and BatchRunner::run on the same "
                             "sweep; the replay's shares are scaled to "
                             "the rest)\n";
            std::cout << "premise: " << w->premise(shares) << "\n";
            for (const auto &[name, value] : layer) {
                std::string unit = "ratio";
                for (const PerLayer &p : kPerLayer)
                    if (name == p.name)
                        unit = p.unit;
                json::Value m = json::Value::object();
                m.set("value", value);
                m.set("unit", unit);
                metrics.set(name, std::move(m));
                std::cout << "metric " << name << " " << fmt(value) << " "
                          << unit << "\n";
            }
            if (!args.traceOut.empty()) {
                if (tracer.write(args.traceOut))
                    std::cout << "spans written to " << args.traceOut
                              << "\n";
                else
                    std::cerr << "bench_main: cannot write "
                              << args.traceOut << "\n";
            }
        }

        for (const std::string &line : why)
            std::cout << "check failed: " << line << "\n";
        std::cout << "failed_ratio " << fmt(static_cast<double>(failed) /
                                            static_cast<double>(attempted))
                  << " ratio (" << failed << " of " << attempted
                  << " jobs)\n";
        json::Value result = json::Value::object();
        result.set("correct", failed == 0);
        result.set("attempted", attempted);
        result.set("failed", failed);
        result.set("metrics", std::move(metrics));
        std::cout << result.dump(0) << std::endl;
        return failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "bench_main: " << e.what() << "\n";
        return 2;
    }
}
