/**
 * @file
 * The benchmark's workloads and the helpers they share.
 *
 * A workload is a closed loop with one client: request(k) returns only
 * when request k's results are in and checked. Requests are indexed
 * 0..passLength()-1 and the timed loop cycles through them, so the
 * request sequence, and every simulated-cycle count, is a pure
 * function of the seed. build() makes the workload's inputs, programs
 * and service from scratch; bench_main times it as the set-up.
 */
#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tracer.hh"

namespace perfbench {

/** Outcome of one request. */
struct RequestResult
{
    std::uint64_t jobs = 0;   ///< Jobs attempted.
    std::uint64_t failed = 0; ///< Failed, rejected by a check, or ok:false.
    std::uint64_t cycles = 0; ///< Simulated machine cycles.
    /** Hash of every job's outputs; equal across repeats of a request. */
    std::uint64_t fingerprint = 0;
};

using Metrics = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Worker threads doing simulation work (at most 2). */
    virtual unsigned threads() const = 0;
    /** Requests in one pass of the seeded sequence. */
    virtual unsigned passLength() const = 0;
    /** One-line description of the request, for the report. */
    virtual std::string describe() const = 0;

    /** Build inputs, programs and service from scratch for @p seed. */
    virtual void build(std::uint64_t seed) = 0;

    /** Run request @p k; spans go to @p t when it is non-null. */
    virtual RequestResult request(unsigned k, Tracer *t) = 0;

    /**
     * Checks made once, after the timed section: a fixed sample re-run
     * on the interpreter backend, and any other oracle too costly for
     * the loop. Returns the number of failed jobs; appends a line per
     * failure to @p why.
     */
    virtual std::uint64_t postCheck(std::vector<std::string> &why) = 0;

    /** Whether replay() applies: false when the request path already
     *  makes every layer's call itself. */
    virtual bool hasReplay() const { return false; }

    /**
     * Traced runs only: make, on this thread, the public calls that the
     * request path makes out of reach (inside Farm::run, the service's
     * worker), on request @p k's specs, with a span around each.
     */
    virtual void
    replay(unsigned k, Tracer &t)
    {
        (void)k;
        (void)t;
    }

    /**
     * Traced runs only: per-layer metrics the workload derives itself
     * (counts, ratios, dedicated probes taking about @p seconds).
     */
    virtual void layerMetrics(double seconds, Metrics &out) = 0;

    /**
     * Traced runs only: fold into the "self.<...>" shares of
     * @p shares (see premise()) a layer's cost that the decomposed
     * phase does not hold. By default there is none.
     */
    virtual void
    completeShares(Metrics &shares) const
    {
        (void)shares;
    }

    /**
     * The premise this workload exists to test, confirmed or refuted
     * on @p shares: "self.<layer>" and "self.<span>" hold shares of
     * self time in the decomposed phase, "path.<...>" the same on the
     * request path, and "p50_ms.<span>" each span's median duration.
     */
    virtual std::string premise(const Metrics &shares) const = 0;
};

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const std::string &examplesDir);

/// @name Statistics shared with bench_main.
/// @{
/** @p key's value, or 0 when absent. */
double share(const Metrics &m, const std::string &key);
double median(std::vector<double> v);
/** Linear-interpolated percentile, @p p in [0, 100]. */
double percentile(std::vector<double> v, double p);
/// @}

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
