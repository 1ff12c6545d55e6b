/**
 * @file
 * Open-loop serving latency under increasing load: a seeded Poisson
 * arrival stream is played through a virtual-clock Server at several
 * multiples of the measured saturation rate, recording the latency
 * distribution, batch-size distribution, shed counts and replica
 * utilisation at each offered rate.
 *
 * The virtual clock makes the sweep deterministic: the same build
 * emits a byte-identical BENCH_serve.json on every host, and the
 * bench itself verifies that by replaying the heaviest rate twice.
 * Past saturation the admission bound (max_queue) must both shed
 * load (nonzero QueueFull rejections) and keep the served p99 total
 * latency under the queue-depth-implied bound — the load-shedding
 * contract of the serving layer.
 *
 * Environment:
 *   SUSHI_JSON_OUT  output path (default BENCH_serve.json)
 *   SUSHI_FULL=1    more requests per rate (slower)
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hh"
#include "common/stats.hh"
#include "data/synth_digits.hh"
#include "engine/inference_engine.hh"
#include "serve/load_gen.hh"
#include "serve/server.hh"
#include "snn/binarize.hh"

#include "bench_util.hh"

using namespace sushi;

namespace {

struct RatePoint
{
    double multiplier = 0.0;
    double offered_rps = 0.0;
    serve::ServerMetrics metrics;
};

serve::ServerConfig
sweepConfig(std::size_t max_queue)
{
    serve::ServerConfig cfg;
    cfg.engine.replicas = 4;
    cfg.max_batch = 8;
    cfg.max_queue = max_queue;
    cfg.clock = serve::ClockMode::Virtual;
    return cfg;
}

/** Play one offered rate through a fresh server. */
serve::ServerMetrics
playRate(const std::shared_ptr<const engine::CompiledModel> &model,
         const serve::ServerConfig &cfg,
         const std::vector<engine::Sample> &pool,
         const serve::LoadGenConfig &lg)
{
    serve::Server server(model, cfg);
    for (const auto &a : serve::poissonArrivals(lg))
        server.submitAt(a.arrival_ns, pool[a.sample_index], a.opts);
    server.runVirtual();
    return server.metrics();
}

} // namespace

int
main()
{
    const bool full = benchutil::envFlag("SUSHI_FULL");
    const std::size_t requests = full ? 2000 : 500;
    const std::size_t pool_n = full ? 128 : 48;
    const int t_steps = 5;

    auto data = data::synthDigits(pool_n, 42);
    snn::SnnConfig net_cfg;
    net_cfg.hidden = 96;
    net_cfg.t_steps = t_steps;
    net_cfg.stateless = true;
    snn::SnnMlp mlp(net_cfg, 7);
    auto bin = snn::BinarySnn::fromFloat(mlp);

    compiler::ChipConfig chip_cfg;
    chip_cfg.n = 16;
    chip_cfg.sc_per_npe = 10;
    auto model =
        engine::CompiledModel::compile(std::move(bin), chip_cfg);
    const auto pool = engine::encodeSamples(data.images, t_steps, 99);

    // --- Calibrate saturation -------------------------------------
    // Serve one full batch per replica on an idle server; the mean
    // batch service time gives the pool's saturation throughput.
    serve::ServerConfig probe_cfg = sweepConfig(1024);
    serve::Server probe(model, probe_cfg);
    for (std::size_t i = 0;
         i < probe_cfg.max_batch *
                 static_cast<std::size_t>(probe.replicas());
         ++i)
        probe.submitAt(0, pool[i % pool.size()]);
    probe.runVirtual();
    const serve::ServerMetrics cal = probe.metrics();
    const double batch_service_ns = cal.service_ns.mean();
    const double capacity_rps =
        static_cast<double>(probe_cfg.engine.replicas) *
        static_cast<double>(probe_cfg.max_batch) * 1e9 /
        batch_service_ns;

    // Delay knob: wait up to half a batch service for coalescing.
    // Queue bound: ~4 batch rounds of backlog per replica.
    const std::size_t max_queue = 128;
    const auto max_delay_ns =
        static_cast<std::int64_t>(batch_service_ns / 2.0);

    std::printf("=== Open-loop serving latency vs offered load ===\n");
    std::printf("%d replicas, batch %zu, queue bound %zu, "
                "%zu requests/rate, batch service %.0f ns, "
                "saturation %.0f rps (virtual)\n",
                probe_cfg.engine.replicas, probe_cfg.max_batch,
                max_queue, requests, batch_service_ns, capacity_rps);
    std::printf("%-6s %12s %9s %9s %9s %10s %10s %10s %8s\n",
                "load", "offered", "served", "shed", "missed",
                "p50 us", "p99 us", "batch", "util");

    const std::vector<double> multipliers = {0.5, 0.8, 1.1, 1.5,
                                             2.5};
    std::vector<RatePoint> points;
    for (double mult : multipliers) {
        serve::ServerConfig cfg = sweepConfig(max_queue);
        cfg.max_delay_ns = max_delay_ns;
        serve::LoadGenConfig lg;
        lg.rate_rps = capacity_rps * mult;
        lg.requests = requests;
        lg.sample_pool = pool.size();
        lg.seed = 4242;
        // Generous deadline: ~24 batch rounds. Under overload the
        // queue bound, not the deadline, is the primary shedder.
        lg.deadline_ns =
            static_cast<std::int64_t>(batch_service_ns * 24.0);
        RatePoint p;
        p.multiplier = mult;
        p.offered_rps = lg.rate_rps;
        p.metrics = playRate(model, cfg, pool, lg);

        const auto &m = p.metrics;
        const double util_sum = [&] {
            double s = 0.0;
            for (std::size_t r = 0; r < m.replicas.size(); ++r)
                s += m.utilisation(r);
            return s / static_cast<double>(m.replicas.size());
        }();
        std::printf("%-6.2f %12.0f %9llu %9llu %9llu %10.1f %10.1f "
                    "%10.2f %7.0f%%\n",
                    mult, p.offered_rps,
                    static_cast<unsigned long long>(m.completed),
                    static_cast<unsigned long long>(
                        m.rejected_queue_full + m.rejected_deadline),
                    static_cast<unsigned long long>(
                        m.deadline_missed),
                    m.total_ns.percentile(0.50) / 1e3,
                    m.total_ns.percentile(0.99) / 1e3,
                    m.batch_size.mean(), util_sum * 100.0);
        points.push_back(std::move(p));
    }

    // --- Contracts ------------------------------------------------
    // 1. Past saturation the admission bound sheds load.
    const auto &top = points.back().metrics;
    const bool sheds = top.rejected_queue_full > 0;

    // 2. ...and thereby bounds the served p99: an admitted request
    // waits at most the queued backlog (max_queue requests over all
    // replicas) plus the delay knob plus its own batch; 2x slack.
    const double worst_wait_ns =
        (static_cast<double>(max_queue) /
             static_cast<double>(probe_cfg.engine.replicas *
                                 probe_cfg.max_batch) +
         1.0) *
            batch_service_ns +
        static_cast<double>(max_delay_ns);
    const auto p99_bound =
        static_cast<std::int64_t>(2.0 * worst_wait_ns);
    bool p99_bounded = true;
    for (const RatePoint &p : points)
        p99_bounded &= p.metrics.total_ns.percentile(0.99) <=
                       p99_bound;

    // 3. The sweep is deterministic: replaying the heaviest rate
    // gives a byte-identical metrics snapshot.
    serve::ServerConfig recfg = sweepConfig(max_queue);
    recfg.max_delay_ns = max_delay_ns;
    serve::LoadGenConfig relg;
    relg.rate_rps = capacity_rps * multipliers.back();
    relg.requests = requests;
    relg.sample_pool = pool.size();
    relg.seed = 4242;
    relg.deadline_ns =
        static_cast<std::int64_t>(batch_service_ns * 24.0);
    const bool deterministic =
        playRate(model, recfg, pool, relg).toJson() == top.toJson();

    std::printf("queue-full shedding past saturation: %s\n",
                sheds ? "yes" : "NO");
    std::printf("p99 total latency within %.1f us bound: %s\n",
                p99_bound / 1e3, p99_bounded ? "yes" : "NO");
    std::printf("replayed sweep byte-identical: %s\n",
                deterministic ? "yes" : "NO");

    JsonWriter w;
    w.field("workload", "synth_digits");
    w.field("requests_per_rate", std::uint64_t{requests});
    w.field("replicas", probe_cfg.engine.replicas);
    w.field("max_batch", std::uint64_t{probe_cfg.max_batch});
    w.field("max_queue", std::uint64_t{max_queue});
    w.field("max_delay_ns", max_delay_ns);
    w.field("batch_service_ns", batch_service_ns);
    w.field("saturation_rps", capacity_rps);
    w.field("p99_bound_ns", p99_bound);
    w.field("sheds_past_saturation", sheds);
    w.field("p99_bounded", p99_bounded);
    w.field("deterministic_replay", deterministic);
    w.beginArray("rates");
    for (const RatePoint &p : points) {
        const auto &m = p.metrics;
        w.beginObject();
        w.field("load", p.multiplier);
        w.field("offered_rps", p.offered_rps);
        w.field("submitted", m.submitted);
        w.field("completed", m.completed);
        w.field("rejected_queue_full", m.rejected_queue_full);
        w.field("rejected_deadline", m.rejected_deadline);
        w.field("deadline_missed", m.deadline_missed);
        w.field("goodput_rps", m.goodputRps());
        w.field("queue_p99_ns", m.queue_ns.percentile(0.99));
        w.field("total_p50_ns", m.total_ns.percentile(0.50));
        w.field("total_p95_ns", m.total_ns.percentile(0.95));
        w.field("total_p99_ns", m.total_ns.percentile(0.99));
        w.field("mean_batch_size", m.batch_size.mean());
        w.endObject();
    }
    w.endArray();
    // toJson() is a standalone document with a trailing newline;
    // trim it so the splice nests cleanly.
    std::string top_json = top.toJson();
    while (!top_json.empty() && top_json.back() == '\n')
        top_json.pop_back();
    w.rawField("top_rate_metrics", top_json);
    const std::string json = w.finish();

    const char *env_path = std::getenv("SUSHI_JSON_OUT");
    const std::string path =
        env_path != nullptr && env_path[0] != '\0'
            ? env_path
            : "BENCH_serve.json";
    if (!JsonWriter::writeFile(path, json)) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
    }
    std::printf("JSON written to %s\n", path.c_str());

    return sheds && p99_bounded && deterministic ? 0 : 1;
}
