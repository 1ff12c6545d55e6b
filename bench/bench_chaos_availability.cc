/**
 * @file
 * Serving availability under injected replica failures: a seeded
 * Poisson stream is played through a virtual-clock Server with the
 * full resilience stack enabled (retries, hedging, circuit breaker,
 * quarantine/probe/readmit, one hot spare) while a chaos campaign
 * kills replicas.
 *
 * Headline scenario (the ISSUE acceptance bar): one of four active
 * replicas is crash-injected a quarter of the way through the run
 * and held down for an eighth of the span. The run must keep
 * availability — served AND deadline-met fraction of submissions —
 * at or above 99%, and the crashed replica must be probed back into
 * rotation before the traffic ends. A crash-rate sweep then records
 * how availability degrades as random whole-chip crashes get more
 * frequent, with and without the recovery stack.
 *
 * The virtual clock makes every scenario deterministic: the bench
 * replays the headline scenario and checks the metrics snapshots
 * are byte-identical, and the emitted BENCH_chaos.json is identical
 * on every host for the same build.
 *
 * Environment:
 *   SUSHI_JSON_OUT  output path (default BENCH_chaos.json)
 *   SUSHI_FULL=1    more requests per scenario (slower)
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "data/synth_digits.hh"
#include "engine/inference_engine.hh"
#include "serve/load_gen.hh"
#include "serve/server.hh"
#include "snn/binarize.hh"

#include "bench_util.hh"

using namespace sushi;

namespace {

/** The ISSUE acceptance floor on headline availability. */
constexpr double kAvailabilityFloor = 0.99;

serve::ServerConfig
baseConfig()
{
    serve::ServerConfig cfg;
    cfg.engine.replicas = 4;
    cfg.hot_spares = 1;
    cfg.max_batch = 8;
    cfg.max_queue = 256;
    cfg.clock = serve::ClockMode::Virtual;
    return cfg;
}

/** Switch the recovery stack on (retry + hedge + breaker + fast
 *  probing) with thresholds scaled to the measured batch service. */
void
enableRecovery(serve::ServerConfig &cfg, double batch_service_ns)
{
    cfg.retry.max_retries = 3;
    cfg.retry.backoff_ns =
        static_cast<std::int64_t>(batch_service_ns / 4.0);
    cfg.hedge.priority_floor = 1; // the deadline-critical tier
    cfg.hedge.delay_ns =
        static_cast<std::int64_t>(batch_service_ns * 2.0);
    cfg.breaker.failure_threshold = 16;
    cfg.health.quarantine_after = 2;
    cfg.health.probe_delay_ns =
        static_cast<std::int64_t>(batch_service_ns);
}

struct ScenarioResult
{
    serve::ServerMetrics metrics;
    std::string json;
};

ScenarioResult
playScenario(
    const std::shared_ptr<const engine::CompiledModel> &model,
    const serve::ServerConfig &cfg,
    const std::vector<engine::Sample> &pool,
    const serve::LoadGenConfig &lg)
{
    serve::Server server(model, cfg);
    for (const auto &a : serve::poissonArrivals(lg))
        server.submitAt(a.arrival_ns, pool[a.sample_index], a.opts);
    server.runVirtual();
    ScenarioResult r;
    r.metrics = server.metrics();
    r.json = r.metrics.toJson();
    return r;
}

} // namespace

int
main()
{
    const bool full = benchutil::envFlag("SUSHI_FULL");
    const std::size_t requests = full ? 3000 : 800;
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

    // --- Calibrate ------------------------------------------------
    // One full batch per active replica on an idle pool gives the
    // batch service time; every rate and threshold scales off it.
    serve::ServerConfig probe_cfg = baseConfig();
    probe_cfg.hot_spares = 0;
    serve::Server probe(model, probe_cfg);
    for (std::size_t i = 0;
         i < probe_cfg.max_batch *
                 static_cast<std::size_t>(probe.replicas());
         ++i)
        probe.submitAt(0, pool[i % pool.size()]);
    probe.runVirtual();
    const double batch_service_ns =
        probe.metrics().service_ns.mean();
    const double capacity_rps =
        static_cast<double>(probe_cfg.engine.replicas) *
        static_cast<double>(probe_cfg.max_batch) * 1e9 /
        batch_service_ns;
    const double offered_rps = 0.6 * capacity_rps;
    const auto span_ns = static_cast<std::int64_t>(
        static_cast<double>(requests) * 1e9 / offered_rps);
    const auto deadline_ns =
        static_cast<std::int64_t>(batch_service_ns * 24.0);

    serve::LoadGenConfig lg;
    lg.rate_rps = offered_rps;
    lg.requests = requests;
    lg.sample_pool = pool.size();
    lg.seed = 4242;
    lg.deadline_ns = deadline_ns;
    lg.priorities = 2; // priority 1 is hedge-eligible

    std::printf("=== Serving availability under chaos ===\n");
    std::printf("4 active + 1 spare, batch %zu, %zu requests at "
                "%.0f rps (60%% capacity), batch service %.0f ns, "
                "deadline %.0f us\n",
                probe_cfg.max_batch, requests, offered_rps,
                batch_service_ns,
                static_cast<double>(deadline_ns) / 1e3);

    // --- Headline: 1 of 4 replicas crashes mid-run ----------------
    serve::ServerConfig crash_cfg = baseConfig();
    crash_cfg.max_delay_ns =
        static_cast<std::int64_t>(batch_service_ns / 2.0);
    enableRecovery(crash_cfg, batch_service_ns);
    crash_cfg.chaos.seed = 7;
    crash_cfg.chaos.crash_hold_ns = span_ns / 8;
    crash_cfg.chaos.script.push_back(
        {span_ns / 4, 0, serve::ChaosKind::Crash, 0});
    crash_cfg.resilience_seed = 11;

    const ScenarioResult headline =
        playScenario(model, crash_cfg, pool, lg);
    const auto &hm = headline.metrics;
    const double availability = hm.availability();
    const bool readmitted = hm.readmits >= 1;
    const bool meets_floor = availability >= kAvailabilityFloor;

    std::printf("\nheadline (scripted 1-of-4 crash at t=%.1f ms, "
                "held %.1f ms):\n",
                static_cast<double>(span_ns / 4) / 1e6,
                static_cast<double>(crash_cfg.chaos.crash_hold_ns) /
                    1e6);
    std::printf(
        "  availability %.4f (floor %.2f): %s\n", availability,
        kAvailabilityFloor, meets_floor ? "ok" : "BELOW FLOOR");
    std::printf("  served %llu/%llu, retries %llu, hedges won %llu, "
                "quarantines %llu, spares promoted %llu, probes "
                "%llu, readmits %llu: %s\n",
                static_cast<unsigned long long>(hm.completed),
                static_cast<unsigned long long>(hm.submitted),
                static_cast<unsigned long long>(hm.retries),
                static_cast<unsigned long long>(hm.hedges_won),
                static_cast<unsigned long long>(hm.quarantines),
                static_cast<unsigned long long>(hm.spares_promoted),
                static_cast<unsigned long long>(hm.probes),
                static_cast<unsigned long long>(hm.readmits),
                readmitted ? "readmitted" : "NOT READMITTED");

    // --- Crash-rate sweep, with and without recovery --------------
    std::printf("\n%-10s %-9s %12s %9s %9s %9s %9s\n", "crash", "stack",
                "availability", "served", "retries", "quaran",
                "readmit");
    struct SweepPoint
    {
        double crash_rate;
        bool recovery;
        serve::ServerMetrics metrics;
    };
    std::vector<SweepPoint> sweep;
    for (double crash_rate : {0.0, 0.005, 0.02, 0.05}) {
        for (bool recovery : {false, true}) {
            serve::ServerConfig cfg = baseConfig();
            cfg.max_delay_ns =
                static_cast<std::int64_t>(batch_service_ns / 2.0);
            if (recovery)
                enableRecovery(cfg, batch_service_ns);
            else
                cfg.hot_spares = 0;
            cfg.chaos.seed = 7;
            cfg.chaos.crash_rate = crash_rate;
            cfg.chaos.crash_hold_ns = span_ns / 16;
            cfg.health.probe_delay_ns = static_cast<std::int64_t>(
                batch_service_ns); // probes even without recovery
            cfg.resilience_seed = 11;

            SweepPoint p{crash_rate, recovery,
                         playScenario(model, cfg, pool, lg).metrics};
            const auto &m = p.metrics;
            std::printf(
                "%-10.3f %-9s %12.4f %9llu %9llu %9llu %9llu\n",
                crash_rate, recovery ? "recovery" : "bare",
                m.availability(),
                static_cast<unsigned long long>(m.completed),
                static_cast<unsigned long long>(m.retries),
                static_cast<unsigned long long>(m.quarantines),
                static_cast<unsigned long long>(m.readmits));
            sweep.push_back(std::move(p));
        }
    }

    // --- Determinism: replay the headline scenario ----------------
    const bool deterministic =
        playScenario(model, crash_cfg, pool, lg).json ==
        headline.json;
    std::printf("\nreplayed headline byte-identical: %s\n",
                deterministic ? "yes" : "NO");

    JsonWriter w;
    w.field("workload", "synth_digits");
    w.field("requests", std::uint64_t{requests});
    w.field("replicas", baseConfig().engine.replicas);
    w.field("hot_spares", baseConfig().hot_spares);
    w.field("offered_rps", offered_rps);
    w.field("batch_service_ns", batch_service_ns);
    w.field("deadline_ns", deadline_ns);
    w.field("availability_floor", kAvailabilityFloor);
    w.field("headline_availability", availability);
    w.field("headline_meets_floor", meets_floor);
    w.field("headline_readmitted", readmitted);
    w.field("deterministic_replay", deterministic);
    w.beginArray("sweep");
    for (const SweepPoint &p : sweep) {
        const auto &m = p.metrics;
        w.beginObject();
        w.field("crash_rate", p.crash_rate);
        w.field("recovery", p.recovery);
        w.field("availability", m.availability());
        w.field("goodput_rps", m.goodputRps());
        w.field("completed", m.completed);
        w.field("rejected_replica_failure",
                m.rejected_replica_failure);
        w.field("rejected_deadline", m.rejected_deadline);
        w.field("deadline_missed", m.deadline_missed);
        w.field("retries", m.retries);
        w.field("hedges_won", m.hedges_won);
        w.field("quarantines", m.quarantines);
        w.field("spares_promoted", m.spares_promoted);
        w.field("readmits", m.readmits);
        w.field("chaos_crashes", m.chaos_crashes);
        w.endObject();
    }
    w.endArray();
    std::string headline_json = headline.json;
    while (!headline_json.empty() && headline_json.back() == '\n')
        headline_json.pop_back();
    w.rawField("headline_metrics", headline_json);
    const std::string json = w.finish();

    const char *env_path = std::getenv("SUSHI_JSON_OUT");
    const std::string path =
        env_path != nullptr && env_path[0] != '\0'
            ? env_path
            : "BENCH_chaos.json";
    if (!JsonWriter::writeFile(path, json)) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
    }
    std::printf("JSON written to %s\n", path.c_str());

    return meets_floor && readmitted && deterministic ? 0 : 1;
}
