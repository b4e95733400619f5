/**
 * @file
 * The three workloads: grid-short, compile-run and serve-short. See
 * perfbench/README.md for why each exists.
 */
#include "workload.hh"

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "analysis/verify.hh"
#include "asm/asm_writer.hh"
#include "asm/assembler.hh"
#include "core/machine.hh"
#include "farm/batch_runner.hh"
#include "farm/farm.hh"
#include "farm/service.hh"
#include "farm/suite.hh"
#include "farm/sweep.hh"
#include "frontend/frontend.hh"
#include "isa/decoded_program.hh"
#include "sched/ir.hh"
#include "sched/pipeline.hh"
#include "sched/regalloc.hh"
#include "support/json.hh"
#include "workloads/randprog.hh"

namespace perfbench {

using namespace ximd;

double
share(const Metrics &m, const std::string &key)
{
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t
fnv(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ULL;
    return h;
}

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        h = (h ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001b3ULL;
    return h;
}

/** A stats JSON with its backend and predecode lines removed, so a
 *  run on the interpreter compares equal to a threaded run. */
std::string
backendFree(const std::string &statsJson)
{
    std::istringstream in(statsJson);
    std::string out, line;
    while (std::getline(in, line))
        if (line.find("\"backend\"") == std::string::npos &&
            line.find("\"predecode\"") == std::string::npos)
            out += line + '\n';
    return out;
}

/** Seed of pass entry @p k for benchmark seed @p seed. */
std::uint64_t
subSeed(std::uint64_t seed, unsigned k)
{
    // splitmix64 of (seed, k): distinct, well-spread per-request seeds
    // that stay small enough for the workload generators' JSON ints.
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + k + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return (z ^ (z >> 31)) % 1000000007ULL + 1;
}

/** Per-mode execution totals and memory-page counts from the replay. */
struct CoreTotals
{
    double runNs[2] = {0, 0};
    double cycles[2] = {0, 0};
    double pagesTouched = 0;
    double pages = 0;
};

/** Fold pages of 4096 words that hold a nonzero word. */
void
countPages(Machine &m, CoreTotals &acc)
{
    Memory &mem = m.memory();
    const std::size_t words = mem.size();
    for (std::size_t base = 0; base < words; base += 4096) {
        const std::size_t end = std::min(words, base + 4096);
        for (std::size_t a = base; a < end; ++a)
            if (mem.peek(static_cast<Addr>(a)) != 0) {
                acc.pagesTouched += 1;
                break;
            }
        acc.pages += 1;
    }
}

/**
 * The calls Farm::runOne makes for @p spec, made here with a span
 * around each: construct, fixture, run, stats JSON, hash, check, free.
 * Returns false when the job failed.
 */
bool
replayJob(const farm::RunSpec &spec, Tracer &t, CoreTotals &acc,
          bool countTouched)
{
    std::unique_ptr<Machine> m;
    {
        Scope s(&t, "core.machine");
        m = std::make_unique<Machine>(spec.program, spec.config);
    }
    std::unique_ptr<farm::JobFixture> fixture;
    if (spec.fixture) {
        Scope s(&t, "farm.fixture");
        fixture = spec.fixture(spec);
        if (fixture)
            fixture->setUp(*m);
    }
    RunResult run;
    {
        Scope s(&t, "core.run");
        run = m->run(spec.maxCycles);
    }
    const int mi = spec.config.mode == Mode::Ximd ? 0 : 1;
    acc.runNs[mi] += static_cast<double>(t.lastNs());
    acc.cycles[mi] += static_cast<double>(run.cycles);
    std::string json;
    {
        Scope s(&t, "core.stats_json");
        json = m->stats().json(spec.config.cycleTimeNs,
                               m->core().effectiveBackendName());
    }
    std::uint64_t hash;
    {
        Scope s(&t, "core.hash");
        hash = m->archStateHash();
    }
    bool ok = run.reason == StopReason::Halted && !json.empty() &&
              hash != 0;
    if (run.reason == StopReason::Halted) {
        Scope s(&t, "core.check");
        if (fixture && !fixture->check(*m, run).empty())
            ok = false;
        if (spec.check && !spec.check(*m, run).empty())
            ok = false;
    }
    // Fixture jobs map device windows into memory; peek() refuses them.
    if (countTouched && !spec.fixture)
        countPages(*m, acc);
    {
        Scope s(&t, "core.free");
        m.reset();
    }
    return ok;
}

/** Re-run @p spec on the interpreter; compare with @p want. */
std::string
interpMismatch(farm::RunSpec spec, const farm::JobResult &want)
{
    spec.config.backend = Backend::Interp;
    const farm::JobResult got = farm::Farm::runOne(spec);
    if (!got.ok())
        return spec.name + ": failed on the interpreter";
    if (got.archHash != want.archHash)
        return spec.name + ": interpreter archHash differs";
    if (backendFree(got.statsJson) != backendFree(want.statsJson))
        return spec.name + ": interpreter statsJson differs";
    return {};
}

std::uint64_t
jobFingerprint(std::uint64_t h, const farm::JobResult &j)
{
    h = fnv(h, j.name);
    h = fnv(h, j.statsJson);
    h = fnv(h, j.archHash);
    return fnv(h, static_cast<std::uint64_t>(j.ok()));
}

// ------------------------------------------------------------------
// grid-short: the section 4.1 suite through Farm::run.
// ------------------------------------------------------------------

/** The §4.1 suite, all 18 specs, small n, one seed per request. */
class GridShort : public Workload
{
  public:
    static constexpr unsigned kN = 64;
    static constexpr unsigned kPass = 16;

    unsigned threads() const override { return 2; }
    unsigned passLength() const override { return kPass; }
    std::string
    describe() const override
    {
        return "Farm::run(builtinSuite(n=" + std::to_string(kN) +
               ", seed), 2 workers), 18 jobs, default MachineConfig";
    }

    void
    build(std::uint64_t seed) override
    {
        pool_.clear();
        sample_.clear();
        for (unsigned k = 0; k < kPass; ++k) {
            farm::SuiteOptions so;
            so.n = kN;
            so.seed = subSeed(seed, k);
            pool_.push_back(farm::builtinSuite(so));
        }
    }

    RequestResult
    request(unsigned k, Tracer *t) override
    {
        farm::BatchResult r;
        {
            Scope s(t, "farm.run");
            r = farm::Farm::run(pool_[k], threads());
        }
        RequestResult out;
        out.fingerprint = kFnvBasis;
        for (const farm::JobResult &j : r.jobs) {
            ++out.jobs;
            if (!j.ok())
                ++out.failed;
            out.cycles += j.run.cycles;
            out.fingerprint = jobFingerprint(out.fingerprint, j);
            if (t)
                hostMs_ += j.hostMillis;
        }
        if (t)
            capacityMs_ += r.wallMillis * r.threads;
        if (k == 0 && sample_.empty())
            sample_ = std::move(r.jobs);
        return out;
    }

    std::uint64_t
    postCheck(std::vector<std::string> &why) override
    {
        // Fixed sample: request 0's jobs on the interpreter.
        std::uint64_t failed = 0;
        for (std::size_t i = 0; i < sample_.size(); ++i) {
            const std::string msg = interpMismatch(pool_[0][i], sample_[i]);
            if (!msg.empty()) {
                why.push_back(msg);
                ++failed;
            }
        }
        return failed + replayFailed_;
    }

    bool hasReplay() const override { return true; }

    void
    replay(unsigned k, Tracer &t) override
    {
        std::set<const PreparedProgram *> seen;
        for (const farm::RunSpec &spec : pool_[k]) {
            // Programs are prepared at set-up (builtinSuite); prepare
            // each distinct one again here.
            if (seen.insert(spec.program.get()).second) {
                Program copy = spec.program->program();
                Scope s(&t, "isa.prepare");
                (void)PreparedProgram::make(std::move(copy));
            }
            if (!replayJob(spec, t, core_, !touchedDone_))
                ++replayFailed_;
        }
        touchedDone_ = true;
    }

    void
    layerMetrics(double seconds, Metrics &out) override
    {
        out["farm.busy_ratio"] =
            capacityMs_ > 0 ? hostMs_ / capacityMs_ : 0.0;
        // Per-job host time at the workload's worker count against
        // 1 worker, on the same specs, alternating.
        std::vector<double> atN, at1;
        const std::int64_t end =
            nowNs() + static_cast<std::int64_t>(seconds * 1e9);
        for (unsigned k = 0; nowNs() < end || at1.empty(); ++k) {
            const auto &specs = pool_[k % pool_.size()];
            for (const auto &j : farm::Farm::run(specs, threads()).jobs)
                atN.push_back(j.hostMillis);
            for (const auto &j : farm::Farm::run(specs, 1).jobs)
                at1.push_back(j.hostMillis);
        }
        out["farm.contention_ratio"] = median(atN) / median(at1);
        if (core_.cycles[0] > 0)
            out["core.ns_per_cycle.ximd"] =
                core_.runNs[0] / core_.cycles[0];
        if (core_.cycles[1] > 0)
            out["core.ns_per_cycle.vliw"] =
                core_.runNs[1] / core_.cycles[1];
        if (core_.pages > 0)
            out["core.mem_touched_ratio"] =
                core_.pagesTouched / core_.pages;
    }

    std::string
    premise(const Metrics &m) const override
    {
        const double fixed =
            share(m, "self.core.machine") + share(m, "self.core.hash") +
            share(m, "self.core.free");
        const double run = share(m, "self.core.run");
        std::ostringstream os;
        os << "machine set-up + hash + free (" << fixed
           << " of replay self time) "
           << (fixed > run ? "exceed" : "do not exceed")
           << " run (" << run << "): premise "
           << (fixed > run ? "confirmed" : "refuted");
        return os.str();
    }

  private:
    std::vector<std::vector<farm::RunSpec>> pool_;
    std::vector<farm::JobResult> sample_;
    double hostMs_ = 0;
    double capacityMs_ = 0;
    CoreTotals core_;
    bool touchedDone_ = false;
    std::uint64_t replayFailed_ = 0;
};

// ------------------------------------------------------------------
// compile-run: C / IR -> compile -> verify -> asm -> prepare -> run.
// ------------------------------------------------------------------

class CompileRun : public Workload
{
  public:
    static constexpr unsigned kPass = 32;
    static constexpr std::size_t kDataWords = 4096;
    static constexpr unsigned kSpillRegs = 5;
    static constexpr Cycle kMaxCycles = 10'000'000;

    explicit CompileRun(std::string examplesDir)
        : dir_(std::move(examplesDir))
    {
    }

    unsigned threads() const override { return 1; }
    unsigned passLength() const override { return kPass; }
    std::string
    describe() const override
    {
        return "4 Livermore C kernels + 1 randomLoopIr draw, each "
               "{heuristic, exact} x {direct, spill at " +
               std::to_string(kSpillRegs) + " regs}: 20 jobs";
    }

    void
    build(std::uint64_t seed) override
    {
        kernels_.clear();
        draws_.clear();
        sample_.clear();
        counters_.assign(kPass, Counters{});
        for (const char *name :
             {"livermore1", "livermore2", "livermore3", "livermore12"}) {
            Kernel kern;
            kern.name = name;
            std::ifstream f(dir_ + "/" + name + ".c");
            if (!f)
                throw std::runtime_error("compile-run: cannot read " +
                                         dir_ + "/" + name + ".c");
            std::ostringstream text;
            text << f.rdbuf();
            kern.source = text.str();
            auto ir = frontend::compileC(kern.source);
            if (!ir.hasValue())
                throw std::runtime_error(ir.error().format());
            kern.ir = std::move(ir.value());
            kern.oracle = oracle(kern.ir);
            kernels_.push_back(std::move(kern));
        }
        for (unsigned k = 0; k < kPass; ++k) {
            const std::uint64_t s = subSeed(seed, k);
            workloads::RandLoopOptions lo;
            lo.seed = s;
            lo.bodyOps = 2 + static_cast<unsigned>(s % 11);
            lo.tripCount = 3 + static_cast<unsigned>(s % 5);
            Kernel kern;
            kern.name = "randloop/seed=" + std::to_string(s);
            kern.ir = workloads::randomLoopIr(lo);
            kern.oracle = oracle(kern.ir);
            draws_.push_back(std::move(kern));
        }
    }

    RequestResult
    request(unsigned k, Tracer *t) override
    {
        RequestResult out;
        out.fingerprint = kFnvBasis;
        Counters c;
        const bool record = sample_.empty() && k == 0;
        for (int ki = 0; ki < 5; ++ki) {
            const Kernel &kern = ki < 4 ? kernels_[ki] : draws_[k];
            for (bool exact : {false, true})
                for (bool spill : {false, true}) {
                    ++out.jobs;
                    Job j = runJob(kern, exact, spill, t, c, record);
                    if (!j.ok)
                        ++out.failed;
                    out.cycles += j.cycles;
                    out.fingerprint = fnv(out.fingerprint, j.rows);
                    out.fingerprint = fnv(out.fingerprint, j.cycles);
                    out.fingerprint =
                        fnv(out.fingerprint,
                            static_cast<std::uint64_t>(j.ok));
                    if (record)
                        sample_.push_back(std::move(j));
                }
        }
        counters_[k] = c;
        return out;
    }

    std::uint64_t
    postCheck(std::vector<std::string> &why) override
    {
        std::uint64_t failed = 0;
        for (const Job &j : sample_) {
            if (!j.ok)
                continue; // Already counted as failed.
            Machine m(j.prepared, MachineConfig::ximd()
                                      .withMemWords(j.memWords)
                                      .withBackend(Backend::Interp));
            const RunResult run = m.run(kMaxCycles);
            const std::string json = m.stats().json(
                m.config().cycleTimeNs, m.core().effectiveBackendName());
            if (run.reason != StopReason::Halted ||
                m.archStateHash() != j.archHash ||
                backendFree(json) != backendFree(j.statsJson)) {
                why.push_back(j.name +
                              ": interpreter run differs from threaded");
                ++failed;
            }
        }
        return failed;
    }

    void
    layerMetrics(double seconds, Metrics &out) override
    {
        (void)seconds;
        Counters pass;
        for (const Counters &c : counters_) {
            pass.nodes += c.nodes;
            pass.searched += c.searched;
            pass.proven += c.proven;
            pass.rows += c.rows;
            pass.spillOps += c.spillOps;
        }
        out["sched.exact_nodes"] = static_cast<double>(pass.nodes);
        out["sched.exact_proven_ratio"] =
            pass.searched ? static_cast<double>(pass.proven) /
                                static_cast<double>(pass.searched)
                          : 0.0;
        out["sched.rows"] = static_cast<double>(pass.rows);
        out["sched.spill_ops"] = static_cast<double>(pass.spillOps);
        if (core_.cycles[0] > 0)
            out["core.ns_per_cycle.ximd"] =
                core_.runNs[0] / core_.cycles[0];
    }

    std::string
    premise(const Metrics &m) const override
    {
        const double compile =
            share(m, "self.frontend") + share(m, "self.sched") +
            share(m, "self.analysis") + share(m, "self.asm");
        std::ostringstream os;
        os << "frontend + sched + analysis + asm are " << compile
           << " of request self time: premise "
           << (compile > 0.5 ? "confirmed" : "refuted")
           << " (the compile layers do most of the work)";
        return os.str();
    }

  private:
    struct Kernel
    {
        std::string name;
        std::string source; ///< C text; empty for IR draws.
        sched::IrProgram ir;
        std::vector<Word> oracle;
    };

    /** One compiled and run kernel; kept for the interpreter re-run. */
    struct Job
    {
        std::string name;
        bool ok = false;
        std::uint64_t rows = 0;
        std::uint64_t cycles = 0;
        std::shared_ptr<const PreparedProgram> prepared;
        std::size_t memWords = 0;
        std::uint64_t archHash = 0;
        std::string statsJson;
    };

    /** Deterministic compile counts over one request. */
    struct Counters
    {
        std::uint64_t nodes = 0;
        std::uint64_t searched = 0;
        std::uint64_t proven = 0;
        std::uint64_t rows = 0;
        std::uint64_t spillOps = 0;
    };

    static std::vector<Word>
    oracle(const sched::IrProgram &ir)
    {
        std::vector<Word> mem(kDataWords, 0);
        sched::interpretIr(ir, mem);
        return mem;
    }

    static std::size_t
    pow2AtLeast(std::size_t n)
    {
        std::size_t w = kDataWords;
        while (w < n)
            w <<= 1;
        return w;
    }

    Job
    runJob(const Kernel &kern, bool exact, bool spill, Tracer *t,
           Counters &c, bool record)
    {
        Job job;
        job.name = kern.name + (exact ? "/exact" : "/heuristic") +
                   (spill ? "/spill" : "/direct");
        try {
            sched::IrProgram ir;
            if (!kern.source.empty()) {
                Scope s(t, "frontend.compileC");
                auto r = frontend::compileC(kern.source);
                if (!r.hasValue())
                    return job;
                ir = std::move(r.value());
            } else {
                ir = kern.ir;
            }
            sched::PipelineOptions po;
            po.schedule = exact ? sched::ScheduleTier::Exact
                                : sched::ScheduleTier::Heuristic;
            // Node cap only: a wall-clock budget would make the
            // emitted code depend on the host's speed.
            po.exact.budgetMs = 0;
            if (spill) {
                po.alloc.window = {0, kSpillRegs};
                po.alloc.spill = true;
            }
            sched::Compiler compiler(po);
            Program program{1};
            {
                Scope s(t, "sched.compile");
                auto r = compiler.compile(std::move(ir));
                if (!r.hasValue())
                    return job;
                program = std::move(r.value().program);
            }
            const sched::CompileContext &cx = compiler.context();
            for (const sched::ExactLoopStat &ls : cx.loopStats) {
                c.nodes += ls.nodes;
                ++c.searched;
                c.proven += ls.proven ? 1 : 0;
            }
            c.spillOps += cx.alloc.spillStores + cx.alloc.spillReloads;
            job.rows = program.size();
            c.rows += job.rows;
            {
                Scope s(t, "analysis.verify");
                analysis::verify(program);
            }
            std::shared_ptr<const PreparedProgram> prepared;
            {
                Program back{1};
                {
                    Scope s(t, "asm.roundtrip");
                    auto r = assembleStringResult(writeAssembly(program));
                    if (!r.hasValue())
                        return job;
                    back = std::move(r.value());
                }
                Scope s(t, "isa.prepare");
                prepared = PreparedProgram::make(std::move(back));
            }
            // The memory the kernel needs: its data, plus the spill
            // slots the allocator used.
            job.memWords =
                cx.alloc.slotsUsed
                    ? pow2AtLeast(po.alloc.spillBase + cx.alloc.slotsUsed)
                    : kDataWords;
            std::unique_ptr<Machine> m;
            {
                Scope s(t, "core.machine");
                m = std::make_unique<Machine>(
                    prepared,
                    MachineConfig::ximd().withMemWords(job.memWords));
            }
            RunResult run;
            {
                Scope s(t, "core.run");
                run = m->run(kMaxCycles);
            }
            if (t) {
                core_.runNs[0] += static_cast<double>(t->lastNs());
                core_.cycles[0] += static_cast<double>(run.cycles);
            }
            job.cycles = run.cycles;
            if (run.reason != StopReason::Halted)
                return job;
            bool same = true;
            {
                Scope s(t, "core.check");
                for (std::size_t a = 0; a < kDataWords; ++a)
                    if (m->peekMem(static_cast<Addr>(a)) != kern.oracle[a]) {
                        same = false;
                        break;
                    }
            }
            if (record) {
                job.prepared = prepared;
                job.archHash = m->archStateHash();
                job.statsJson = m->stats().json(
                    m->config().cycleTimeNs,
                    m->core().effectiveBackendName());
            }
            {
                Scope s(t, "core.free");
                m.reset();
            }
            job.ok = same;
        } catch (const std::exception &) {
            job.ok = false;
        }
        return job;
    }

    std::string dir_;
    std::vector<Kernel> kernels_;
    std::vector<Kernel> draws_;
    std::vector<Job> sample_;
    std::vector<Counters> counters_;
    CoreTotals core_;
};

// ------------------------------------------------------------------
// serve-short: one Service, submit + results(wait) per request.
// ------------------------------------------------------------------

/** Replace every `"batch":<id>` with `"batch":_`. */
std::string
withoutBatchId(const std::string &line)
{
    static const std::string key = "\"batch\":";
    std::string out;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t at = line.find(key, pos);
        if (at == std::string::npos)
            break;
        std::size_t end = at + key.size();
        while (end < line.size() && line[end] >= '0' && line[end] <= '9')
            ++end;
        out.append(line, pos, at + key.size() - pos);
        out += '_';
        pos = end;
    }
    out.append(line, pos, std::string::npos);
    return out;
}

/** A service job line as the farm path would report it: the batch
 *  engine's name for itself swapped for the scalar engine's. */
std::string
engineFree(std::string line)
{
    static const std::string batch = "\"backend\":\"batch\"";
    static const std::string scalar = "\"backend\":\"threaded\"";
    for (std::size_t at; (at = line.find(batch)) != std::string::npos;)
        line.replace(at, batch.size(), scalar);
    return line;
}

const char *
stopName(StopReason reason)
{
    switch (reason) {
      case StopReason::Halted:    return "halted";
      case StopReason::MaxCycles: return "max-cycles";
      case StopReason::Fault:     return "fault";
    }
    return "unknown";
}

/** The lines the service's results command writes for @p r, built
 *  from the documented record shape (farm/service.hh). */
std::vector<std::string>
farmRecords(const farm::BatchResult &r)
{
    std::vector<std::string> lines;
    for (const farm::JobResult &j : r.jobs) {
        json::Value v = json::Value::object();
        v.set("schema", static_cast<std::uint64_t>(kStatsJsonSchema));
        v.set("event", "job");
        v.set("batch", static_cast<std::uint64_t>(0));
        v.set("name", j.name);
        v.set("ok", j.ok());
        if (j.ran) {
            v.set("stop", stopName(j.run.reason));
            v.set("backend", j.backend);
            v.set("cycles", static_cast<std::uint64_t>(j.run.cycles));
            auto stats = json::parse(j.statsJson);
            if (stats.hasValue())
                v.set("stats", std::move(stats.value()));
        }
        if (j.error)
            v.set("error", analysis::DiagnosticList::formatOne(*j.error));
        lines.push_back(withoutBatchId(v.dump(0)));
    }
    json::Value v = json::Value::object();
    v.set("schema", static_cast<std::uint64_t>(kStatsJsonSchema));
    v.set("event", "done");
    v.set("batch", static_cast<std::uint64_t>(0));
    v.set("jobs", static_cast<std::uint64_t>(r.jobs.size()));
    v.set("failures", static_cast<std::uint64_t>(r.failures()));
    lines.push_back(withoutBatchId(v.dump(0)));
    return lines;
}

class ServeShort : public Workload
{
  public:
    static constexpr unsigned kN = 64;
    static constexpr unsigned kSeeds = 3;
    static constexpr unsigned kPass = 16;
    /** Specs in the section 4.1 grid (builtinSuite). */
    static constexpr unsigned kGridSpecs = 18;

    unsigned threads() const override { return 1; }
    unsigned passLength() const override { return kPass; }
    std::string
    describe() const override
    {
        return "Service::handleLine submit(inline sweep: " +
               std::to_string(kGridSpecs) + "-spec grid x " +
               std::to_string(kSeeds) + " seeds, n=" + std::to_string(kN) +
               ") + results(wait), default engine and threads";
    }

    void
    build(std::uint64_t seed) override
    {
        service_.reset();
        sweeps_.clear();
        recorded_.assign(kPass, {});
        service_ = std::make_unique<farm::Service>();
        for (unsigned k = 0; k < kPass; ++k) {
            std::string seeds;
            for (unsigned s = 0; s < kSeeds; ++s)
                seeds += (s ? "," : "") +
                         std::to_string(subSeed(seed, k * kSeeds + s));
            std::string runs;
            for (const std::string &w : farm::suiteWorkloads()) {
                const bool ximdOnly = w.rfind("nonblocking", 0) == 0;
                const bool vliwOnly = w == "bitcount-lockstep";
                const std::string modes =
                    ximdOnly   ? "\"ximd\""
                    : vliwOnly ? "\"vliw\""
                               : "[\"ximd\",\"vliw\"]";
                runs += std::string(runs.empty() ? "" : ",") +
                        "{\"workload\":\"" + w + "\",\"mode\":" + modes +
                        ",\"seed\":[" + seeds + "]}";
            }
            sweeps_.push_back("{\"defaults\":{\"n\":" + std::to_string(kN) +
                              "},\"runs\":[" + runs + "]}");
        }
        // A client's set-up ends when the service answers.
        std::string pong;
        service_->handleLine("{\"cmd\":\"ping\"}",
                             [&](const std::string &l) { pong = l; });
        if (pong.find("\"pong\"") == std::string::npos)
            throw std::runtime_error("serve-short: no pong: " + pong);
    }

    RequestResult
    request(unsigned k, Tracer *t) override
    {
        RequestResult out;
        std::string submitted;
        {
            Scope s(t, "service.submit");
            service_->handleLine(
                "{\"cmd\":\"submit\",\"sweep\":" + sweeps_[k] + "}",
                [&](const std::string &l) { submitted = l; });
        }
        const std::size_t at = submitted.find("\"batch\":");
        if (at == std::string::npos ||
            submitted.find("\"ok\":true") == std::string::npos) {
            out.jobs = out.failed = kGridSpecs * kSeeds;
            return out;
        }
        const std::string id =
            std::to_string(std::stoull(submitted.substr(at + 8)));
        std::vector<std::string> lines;
        lines.reserve(kGridSpecs * kSeeds + 1);
        {
            Scope s(t, "service.results");
            service_->handleLine(
                "{\"cmd\":\"results\",\"batch\":" + id + ",\"wait\":true}",
                [&](const std::string &l) { lines.push_back(l); });
        }
        std::uint64_t bytes = submitted.size() + 1;
        out.fingerprint = kFnvBasis;
        for (std::string &l : lines) {
            bytes += l.size() + 1;
            if (l.find("\"event\":\"job\"") != std::string::npos) {
                ++out.jobs;
                if (l.find("\"ok\":false") != std::string::npos)
                    ++out.failed;
                const std::size_t c = l.find("\"cycles\":");
                if (c != std::string::npos)
                    out.cycles += std::stoull(l.substr(c + 9));
            } else if (l.find("\"event\":\"done\"") == std::string::npos) {
                ++out.failed; // An error line.
            }
            l = withoutBatchId(l);
            out.fingerprint = fnv(out.fingerprint, l);
        }
        if (t) {
            responseBytes_ += static_cast<double>(bytes);
            ++responses_;
        }
        if (recorded_[k].empty())
            recorded_[k] = std::move(lines);
        return out;
    }

    std::uint64_t
    postCheck(std::vector<std::string> &why) override
    {
        std::uint64_t failed = replayFailed_;
        for (unsigned k = 0; k < kPass; ++k) {
            if (recorded_[k].empty())
                continue;
            auto specs = farm::parseSweep(sweeps_[k]);
            if (!specs.hasValue()) {
                why.push_back("serve-short: sweep does not parse");
                return failed + 1;
            }
            const farm::BatchResult ref = farm::Farm::run(specs.value(), 1);
            const std::vector<std::string> want = farmRecords(ref);
            std::vector<std::string> got;
            for (const std::string &l : recorded_[k])
                got.push_back(engineFree(l));
            if (got.size() != want.size()) {
                why.push_back("serve-short: request " + std::to_string(k) +
                              " has " + std::to_string(got.size()) +
                              " lines, Farm::run gives " +
                              std::to_string(want.size()));
                ++failed;
                continue;
            }
            for (std::size_t i = 0; i < got.size(); ++i)
                if (got[i] != want[i]) {
                    why.push_back("serve-short: request " +
                                  std::to_string(k) + " line " +
                                  std::to_string(i) +
                                  " differs from Farm::run");
                    ++failed;
                }
            if (k != 0)
                continue;
            // Fixed sample: request 0's specs on the interpreter.
            for (std::size_t i = 0; i < specs.value().size(); ++i) {
                const std::string msg =
                    interpMismatch(specs.value()[i], ref.jobs[i]);
                if (!msg.empty()) {
                    why.push_back(msg);
                    ++failed;
                }
            }
        }
        return failed;
    }

    bool hasReplay() const override { return true; }

    void
    replay(unsigned k, Tracer &t) override
    {
        // The request through the service right before its replay, so
        // that both see the same phase of the host (see
        // completeShares); kept out of the share table.
        const char *phase = t.phase;
        t.phase = "probe";
        {
            Scope s(&t, "service.request");
            replayFailed_ += request(k, nullptr).failed;
        }
        const double pathNs = static_cast<double>(t.lastNs());
        t.phase = phase;
        // What the service's worker does with a submission, on the
        // same sweep: expand it, then run it through BatchRunner.
        std::vector<farm::RunSpec> specs;
        double engineNs = 0;
        {
            Scope s(&t, "farm.sweep");
            auto r = farm::parseSweep(sweeps_[k]);
            if (!r.hasValue()) {
                ++replayFailed_;
                return;
            }
            specs = std::move(r.value());
        }
        engineNs += static_cast<double>(t.lastNs());
        farm::BatchResult r;
        {
            Scope s(&t, "batch.run");
            r = farm::BatchRunner::run(specs, 1, 0);
        }
        engineNs += static_cast<double>(t.lastNs());
        engineShare_.push_back(engineNs / pathNs);
        replayFailed_ += r.failures();
        // Specs the batch engine demotes run on scalar Machines inside
        // BatchRunner::run; build and run those again for the core
        // numbers, outside the share table (their time is already in
        // batch.run).
        t.phase = "probe";
        CoreTotals notReported;
        for (const farm::RunSpec &s : specs) {
            ++specsSeen_;
            if (farm::batchDemotionReason(s)) {
                ++demoted_;
                if (!replayJob(s, t, notReported, false))
                    ++replayFailed_;
            }
        }
        t.phase = phase;
    }

    void
    layerMetrics(double seconds, Metrics &out) override
    {
        (void)seconds;
        out["batch.demoted_ratio"] =
            specsSeen_ ? static_cast<double>(demoted_) /
                             static_cast<double>(specsSeen_)
                       : 0.0;
        out["service.response_bytes"] =
            responses_ ? responseBytes_ / responses_ : 0.0;
    }

    /**
     * The replay holds the sweep expansion and the batch engine only.
     * The service's own part of a request (JSON, queue hand-off, the
     * worker's wake-up, serialization) is what the request through the
     * service takes beyond them, on the same sweep, made just before:
     * the replay's shares are scaled to the engine's part of a request
     * (the median over the pairs) and the rest is the service's.
     */
    void
    completeShares(Metrics &m) const override
    {
        if (engineShare_.empty())
            return;
        const double part = std::min(1.0, median(engineShare_));
        for (auto &[key, value] : m)
            if (key.rfind("self.", 0) == 0)
                value *= part;
        m["self.service"] = 1.0 - part;
    }

    std::string
    premise(const Metrics &m) const override
    {
        const double part = median(engineShare_);
        std::ostringstream os;
        os << "the sweep expansion + BatchRunner::run take " << part
           << " of the same request through the service; with queue, "
              "hand-off and serialization the service path takes "
           << (part > 0 ? 1.0 / part : 0.0)
           << "x the engine (shares of a request: service "
           << share(m, "self.service") << ", farm " << share(m, "self.farm")
           << ", batch " << share(m, "self.batch") << ")";
        return os.str();
    }

  private:
    std::unique_ptr<farm::Service> service_;
    std::vector<std::string> sweeps_;
    std::vector<std::vector<std::string>> recorded_;
    double responseBytes_ = 0;
    double responses_ = 0;
    std::uint64_t specsSeen_ = 0;
    std::uint64_t demoted_ = 0;
    std::uint64_t replayFailed_ = 0;
    /** Per replayed request: engine time / time through the service. */
    std::vector<double> engineShare_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const std::string &examplesDir)
{
    if (name == "grid-short")
        return std::make_unique<GridShort>();
    if (name == "compile-run")
        return std::make_unique<CompileRun>(examplesDir);
    if (name == "serve-short")
        return std::make_unique<ServeShort>();
    return nullptr;
}

} // namespace perfbench
