/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one call into a layer of the program: its name
 * ("<layer>.<call>"), start and end on the steady clock, the span that
 * was open when it began, and the request it belongs to. Spans are
 * recorded only by the benchmark's own code, around its calls into the
 * public entry points, and only on the benchmark's thread; they are
 * kept in memory and written out once, at exit.
 *
 * A layer's self time is the duration of its spans minus the part of
 * each span covered by its child spans. Children on one thread never
 * overlap, so that part is the sum of the children's durations. Self
 * time is summed per phase; a child in another phase counts in
 * neither its own phase's total nor its parent's.
 */
#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

struct Span
{
    const char *name; ///< "<layer>.<call>"; a string literal.
    std::int64_t startNs;
    std::int64_t endNs;
    int parent;         ///< Index of the enclosing span, or -1.
    std::uint32_t request;
    /** "path" (the request's own calls), "replay" (calls the path
     *  makes out of reach, made again here) or "probe" (measurements
     *  kept out of the share table). */
    const char *phase;
};

/** The layer a span name belongs to: the text before the first '.'. */
inline std::string
layerOf(const char *name)
{
    const std::string s(name);
    const auto dot = s.find('.');
    return dot == std::string::npos ? s : s.substr(0, dot);
}

class Tracer
{
  public:
    /** Request id and phase stamped on subsequently opened spans. */
    std::uint32_t request = 0;
    const char *phase = "path";

    int
    open(const char *name)
    {
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, nowNs(), 0, parent, request, phase});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id)
    {
        Span &s = spans_[static_cast<std::size_t>(id)];
        s.endNs = nowNs();
        lastNs_ = s.endNs - s.startNs;
        stack_.pop_back();
    }

    /** Duration of the most recently closed span. */
    std::int64_t lastNs() const { return lastNs_; }

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations in ns of every span called @p name. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const Span &s : spans_)
            if (name == s.name)
                out.push_back(static_cast<double>(s.endNs - s.startNs));
        return out;
    }

    /**
     * Self time in ns over the spans of @p phase, keyed by layer
     * (@p byLayer) or by span name.
     */
    std::map<std::string, double>
    selfTime(const char *phase, bool byLayer) const
    {
        std::vector<double> childNs(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                childNs[static_cast<std::size_t>(s.parent)] +=
                    static_cast<double>(s.endNs - s.startNs);
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (std::string(phase) != s.phase)
                continue;
            out[byLayer ? layerOf(s.name) : std::string(s.name)] +=
                static_cast<double>(s.endNs - s.startNs) - childNs[i];
        }
        return out;
    }

    /** Write every span as JSON lines: name, start, end, parent,
     *  request, phase. Times are ns from the first span. */
    bool
    write(const std::string &path) const
    {
        std::ofstream f(path);
        if (!f)
            return false;
        const std::int64_t t0 = spans_.empty() ? 0 : spans_[0].startNs;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            f << "{\"id\":" << i << ",\"name\":\"" << s.name
              << "\",\"start_ns\":" << s.startNs - t0
              << ",\"end_ns\":" << s.endNs - t0
              << ",\"parent\":" << s.parent
              << ",\"request\":" << s.request << ",\"phase\":\""
              << s.phase << "\"}\n";
        }
        return static_cast<bool>(f);
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::int64_t lastNs_ = 0;
};

/** RAII span; a no-op when the tracer is null. */
class Scope
{
  public:
    Scope(Tracer *t, const char *name) : t_(t), id_(t ? t->open(name) : -1)
    {
    }
    ~Scope()
    {
        if (t_)
            t_->close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
