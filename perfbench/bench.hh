/**
 * @file
 * Shared declarations of the repo benchmark (perfbench): timing
 * helpers, the metric record, the span recorder and the trained
 * fixture the chip workloads run.
 *
 * The benchmark measures every layer from outside, by timing calls
 * into its public functions; nothing under src/ is instrumented.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/compiled_model.hh"
#include "engine/inference_engine.hh"

namespace perfbench {

// ---------------------------------------------------------------
// Clock and order statistics.

using Clock = std::chrono::steady_clock;

/** Host nanoseconds since an arbitrary process-wide origin. */
std::int64_t nowNs();

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Quantile @p q in [0, 1] of @p v by linear interpolation between
 *  order statistics (the values are sorted in place). */
double quantile(std::vector<double> &v, double q);

/** Median of @p v (by value; @p v is not modified). */
double median(std::vector<double> v);

/**
 * A timing distribution summarised as the guide asks: the median,
 * the highest percentile with at least ten samples beyond it, and
 * the sample count.
 */
struct Summary
{
    double p50 = 0.0;
    double p99 = 0.0;    ///< 0.99 quantile
    double p_hi = 0.0;   ///< highest percentile with >= 10 beyond
    double p_hi_q = 0.0; ///< its quantile (0 when n < 11)
    double mean = 0.0;
    std::size_t n = 0;
};

Summary summarize(std::vector<double> v);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

// ---------------------------------------------------------------
// Metric record.

/** One named metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** The outcome of one workload run. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The metrics the contract line carries (end-to-end or
     *  per-layer, by run kind). */
    std::map<std::string, Metric> metrics;
    /** Extra detail for the record file only: summaries with their
     *  sample counts, gate outcomes. */
    std::map<std::string, double> detail;
    /** Correctness gate failures, one line each. */
    std::vector<std::string> errors;

    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** Store @p s as detail entries under @p name. */
    void detailSummary(const std::string &name, const Summary &s);

    /** Record a gate: on failure, mark the run incorrect. */
    void gate(bool ok, const std::string &what);
};

// ---------------------------------------------------------------
// Span recorder (traced runs).

/**
 * In-memory span recorder. A span holds its name, layer, start, end,
 * parent span and request or sample id. Spans are kept in memory and
 * written as Chrome trace-event JSON when the run ends. When
 * disabled, begin/end cost one branch and record nothing.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::string layer;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::int64_t parent = -1; ///< index into spans(), -1 = root
        std::int64_t id = -1;     ///< request / sample id
        int tid = 0;
    };

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span under the innermost open span; returns its index
     *  (-1 when disabled). */
    std::int64_t begin(const char *layer, const std::string &name,
                       std::int64_t id = -1);

    /** Close span @p index (no-op for -1). */
    void end(std::int64_t index);

    /** Record a finished span with explicit times and parent (spans
     *  derived from program timestamps, e.g. serving responses). */
    std::int64_t add(const char *layer, const std::string &name,
                     std::int64_t start_ns, std::int64_t end_ns,
                     std::int64_t parent, std::int64_t id, int tid);

    const std::vector<Span> &spans() const { return spans_; }

    /** Drop every span recorded after the first @p n. */
    void truncate(std::size_t n) { spans_.resize(std::min(n, spans_.size())); }

    /** Self time per layer: each span's duration minus the part of
     *  its interval its children cover, summed by layer (ns). */
    std::map<std::string, double> selfNsByLayer() const;

    /** Write every span as Chrome trace-event JSON. */
    bool writeChromeJson(const std::string &path) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<std::int64_t> open_;
};

/** RAII span on a Tracer. */
class Scope
{
  public:
    Scope(Tracer &t, const char *layer, const std::string &name,
          std::int64_t id = -1)
        : t_(t), index_(t.enabled() ? t.begin(layer, name, id) : -1)
    {}
    ~Scope() { t_.end(index_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    std::int64_t index_;
};

// ---------------------------------------------------------------
// Trained fixture.

/** Which trained network a fixture holds. */
enum class Net {
    Digits,   ///< 784-96-10, 2 epochs, single-chip compile
    Flagship, ///< 784-800-10, 1 epoch, cost-aware multi-chip plan
};

/** Host seconds of each setup phase. */
struct SetupTimes
{
    double synth = 0, train = 0, binarize = 0, compile = 0,
           encode = 0;
};

/**
 * A trained, binarized and compiled model plus its encoded held-out
 * set, built deterministically from the seed.
 */
struct Fixture
{
    std::shared_ptr<const sushi::engine::CompiledModel> model;
    std::vector<sushi::engine::Sample> samples; ///< held-out, encoded
    std::vector<int> labels;                    ///< held-out labels
    SetupTimes times;
};

/** Build the fixture from @p seed; phases become spans on @p tr. */
Fixture buildFixture(Net net, std::uint64_t seed, Tracer &tr);

/** True if two fixtures hold the same model and inputs bit for bit
 *  (the determinism gate across repeated setups). */
bool sameModel(const Fixture &a, const Fixture &b);

/** The fixture's network compiled onto one chip with no budget: the
 *  single-chip reference for multi-chip plans. */
std::shared_ptr<const sushi::engine::CompiledModel>
compileUnbounded(const Fixture &fx);

/** Reference results of the fixture's held-out set (engine, NoC
 *  per EngineConfig), and per-sample modelled stats. */
struct Reference
{
    std::vector<sushi::engine::SampleResult> results;
    std::vector<sushi::chip::InferenceStats> per_sample;
    sushi::chip::InferenceStats merged;
    double accuracy = 0.0;
};

/** Run the whole held-out set once through an engine. */
Reference referenceRun(const Fixture &fx,
                       const sushi::engine::EngineConfig &cfg);

/** True if two result lists agree count for count. */
bool sameResults(const std::vector<sushi::engine::SampleResult> &a,
                 const std::vector<sushi::engine::SampleResult> &b);

/** Independent sub-seed @p k of @p seed (splitmix64 finaliser), so
 *  data, weights, shuffling, encoding and arrivals draw unrelated
 *  streams from the one --seed. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t k);

/** Host threads the benchmark may use (nproc). */
int hostThreads();

/** The fixture built several times, as setup_s asks. */
struct SetupRun
{
    Fixture fx;                  ///< the last build
    std::vector<double> setup_s; ///< wall time of each build
    std::vector<SetupTimes> phases;
    bool deterministic = true;   ///< every build identical
};

/**
 * Build the fixture @p reps times. Each timed setup ends with
 * @p construct (engine or server construction), which runs on the
 * fixture just built. Only the first build records spans.
 */
SetupRun setupRepeated(Net net, std::uint64_t seed, int reps,
                       Tracer &tr,
                       const std::function<void(const Fixture &)>
                           &construct);

/** Gates every fixture workload shares: repeated setups agree, the
 *  output layer fires, accuracy is far above the 10% chance level. */
void fixtureGates(const SetupRun &setup, const Reference &ref,
                  Result &res);

/** Per-layer metrics of the setup phases (data, snn, compiler). */
void setupLayerMetrics(const SetupRun &setup, Result &res);

/**
 * Per-layer metrics of compiler, chip and engine for a fixture
 * workload: a traced replay of the chip calls the engine makes, whose
 * per-sample counts and stats must match @p ref bit for bit, plus
 * timed engine probes at 1 and @p cfg.replicas replicas. Spends about
 * @p budget_s host seconds.
 */
void chipLayerMetrics(const Fixture &fx, const Reference &ref,
                      const sushi::engine::EngineConfig &cfg,
                      double budget_s, Tracer &tr, Result &res);

/** Self-time shares by layer; writes the Chrome trace. */
void finishTrace(const Tracer &tr, const std::string &path,
                 Result &res);

// ---------------------------------------------------------------
// Workloads.

/** Print @p r as one JSON line: correct, attempted, failed, metrics
 *  and detail. */
void printResult(const Result &r);

/** Command-line settings of one run. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_path; ///< Chrome trace output ("" = none)
};

Result runOfflineDigits(const RunConfig &rc);
Result runServeDigits(const RunConfig &rc);
Result runPipelineFlagship(const RunConfig &rc);
Result runGateNpe(const RunConfig &rc);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
