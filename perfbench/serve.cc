/**
 * @file
 * serve_digits: the trained fixture behind a real-clock Server with
 * two replicas, driven open-loop. One generator thread sends Poisson
 * arrivals at a fixed rate, sleeping until each one is due, so a
 * stall delays every later request and shows in their latency.
 * Latency runs from each request's due time to its completion.
 */

#include <future>
#include <thread>

#include "bench.hh"
#include "serve/load_gen.hh"
#include "serve/server.hh"

namespace perfbench {

using namespace sushi;

namespace {

/** Offered load, under half the two-replica capacity. */
constexpr double kRateRps = 4000.0;
/** Latency limit of one request, due time to completion. */
constexpr double kLimitMs = 2.0;
constexpr int kReplicas = 2;
/** Leading seconds of the schedule kept out of the statistics. */
constexpr double kWarmupS = 0.5;

struct Sent
{
    std::int64_t due_ns = 0;   ///< server clock
    std::int64_t call0_ns = 0; ///< submit() entered, server clock
    std::int64_t call1_ns = 0; ///< submit() returned, server clock
    std::size_t sample = 0;
    bool measured = false; ///< due after the warm-up
    std::future<serve::Response> fut;
};

struct OpenLoop
{
    std::vector<Sent> sent;
    std::vector<serve::Response> resp;
    serve::ServerMetrics metrics;
    std::int64_t offset_ns = 0; ///< steady ns = server ns + offset
};

/** Send the seeded schedule of @p seconds at kRateRps, then drain. */
OpenLoop
openLoop(serve::Server &srv, const Fixture &fx, double seconds,
         std::uint64_t seed)
{
    serve::LoadGenConfig lg;
    lg.rate_rps = kRateRps;
    lg.requests = static_cast<std::size_t>(kRateRps * seconds);
    lg.sample_pool = fx.samples.size();
    lg.seed = seed;
    const auto arrivals = serve::poissonArrivals(lg);

    OpenLoop out;
    out.offset_ns = nowNs() - srv.now();
    const std::int64_t base = srv.now() + 1'000'000;
    const auto warm = static_cast<std::int64_t>(kWarmupS * 1e9);
    out.sent.resize(arrivals.size());
    for (std::size_t k = 0; k < arrivals.size(); ++k) {
        Sent &s = out.sent[k];
        s.sample = arrivals[k].sample_index;
        s.due_ns = base + arrivals[k].arrival_ns;
        s.measured = arrivals[k].arrival_ns >= warm;
        std::this_thread::sleep_until(Clock::time_point(
            std::chrono::nanoseconds(s.due_ns + out.offset_ns)));
        engine::Sample sample = fx.samples[s.sample];
        s.call0_ns = nowNs() - out.offset_ns;
        s.fut = srv.submit(std::move(sample));
        s.call1_ns = nowNs() - out.offset_ns;
    }
    srv.drain();
    for (auto &s : out.sent)
        out.resp.push_back(s.fut.get());
    out.metrics = srv.metrics();
    return out;
}

/** Correctness of a served run against the offline reference. */
void
checkServed(const OpenLoop &ol, const Reference &ref, Result &res)
{
    std::size_t wrong = 0, rejected = 0;
    for (std::size_t k = 0; k < ol.sent.size(); ++k) {
        const serve::Response &r = ol.resp[k];
        if (!r.ok()) {
            ++rejected;
            continue;
        }
        wrong += r.result.counts != ref.results[ol.sent[k].sample].counts;
    }
    res.attempted += ol.sent.size();
    res.failed += rejected + wrong;
    res.gate(wrong == 0, std::to_string(wrong) +
                             " served responses differ from the offline "
                             "result of their sample");
    const auto &m = ol.metrics;
    const std::uint64_t rej = m.rejected_queue_full +
                              m.rejected_deadline + m.rejected_shutdown +
                              m.rejected_breaker +
                              m.rejected_replica_failure;
    res.gate(m.submitted == m.completed + rej &&
                 m.submitted == ol.sent.size(),
             "request conservation broken: submitted " +
                 std::to_string(m.submitted) + " != completed " +
                 std::to_string(m.completed) + " + rejected " +
                 std::to_string(rej));
    res.detail["serve.rejected"] = static_cast<double>(rejected);
}

double
ms(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-6;
}

} // namespace

Result
runServeDigits(const RunConfig &rc)
{
    Result res;
    Tracer tr;
    tr.setEnabled(rc.trace);
    serve::ServerConfig scfg;
    scfg.engine.replicas = kReplicas;
    scfg.clock = serve::ClockMode::Real;
    std::unique_ptr<serve::Server> srv;
    const SetupRun setup =
        setupRepeated(Net::Digits, rc.seed, 3, tr, [&](const Fixture &fx) {
            srv.reset();
            srv = std::make_unique<serve::Server>(fx.model, scfg);
        });
    const Fixture &fx = setup.fx;
    engine::EngineConfig one;
    one.replicas = 1;
    const Reference ref = referenceRun(fx, one);
    fixtureGates(setup, ref, res);
    const std::uint64_t arrival_seed = subSeed(rc.seed, 5);

    if (rc.trace) {
        setupLayerMetrics(setup, res);
        chipLayerMetrics(fx, ref, scfg.engine, rc.seconds * 0.5, tr, res);
        const OpenLoop ol =
            openLoop(*srv, fx, rc.seconds * 0.5, arrival_seed);
        checkServed(ol, ref, res);
        std::vector<double> submit_ns, queue_ms, service_ms, lag_ms,
            latency_ms;
        for (std::size_t k = 0; k < ol.sent.size(); ++k) {
            const Sent &s = ol.sent[k];
            const serve::Response &r = ol.resp[k];
            const auto id = static_cast<std::int64_t>(k);
            const std::int64_t off = ol.offset_ns;
            const std::int64_t req = tr.add(
                "bench", "request", s.due_ns + off,
                std::max(r.complete_ns, s.call1_ns) + off, -1, id, 1);
            tr.add("serve", "submit", s.call0_ns + off, s.call1_ns + off,
                   req, id, 1);
            if (!s.measured)
                continue;
            submit_ns.push_back(static_cast<double>(s.call1_ns - s.call0_ns));
            lag_ms.push_back(ms(r.submit_ns - s.due_ns));
            if (!r.ok())
                continue;
            tr.add("serve", "queue", r.submit_ns + off, r.dispatch_ns + off,
                   req, id, 1);
            tr.add("engine", "service", r.dispatch_ns + off,
                   r.complete_ns + off, req, id, 1);
            queue_ms.push_back(ms(r.queueNs()));
            service_ms.push_back(ms(r.serviceNs()));
            latency_ms.push_back(ms(r.complete_ns - s.due_ns));
        }
        const Summary sub = summarize(submit_ns), q = summarize(queue_ms),
                      sv = summarize(service_ms), lag = summarize(lag_ms);
        res.set("serve.submit_ns_p50", sub.p50, "ns");
        res.set("serve.submit_ns_p99", sub.p99, "ns");
        res.set("serve.queue_ms_p50", q.p50, "ms");
        res.set("serve.queue_ms_p99", q.p99, "ms");
        res.set("serve.service_ms_p50", sv.p50, "ms");
        res.set("serve.service_ms_p99", sv.p99, "ms");
        res.set("serve.generator_lag_ms", lag.p99, "ms");
        // The tail is a per-layer figure, not an end-to-end one: host
        // scheduling stalls make it vary run to run by more than any
        // bound a regression gate could use.
        const Summary lat = summarize(latency_ms);
        res.set("serve.latency_ms_p99", lat.p99, "ms");
        res.detailSummary("serve.latency_ms", lat);
        res.detailSummary("serve.submit_ns", sub);
        res.detailSummary("serve.queue_ms", q);
        res.detailSummary("serve.service_ms", sv);
        res.detailSummary("serve.generator_lag_ms", lag);
        const auto &m = ol.metrics;
        const double batches = static_cast<double>(m.batches);
        res.set("serve.batch_size_mean",
                static_cast<double>(m.completed) / batches, "count");
        res.set("serve.flush_delay_share",
                static_cast<double>(m.flush_delay) / batches, "ratio");
        double util = 0;
        for (std::size_t r = 0; r < m.replicas.size(); ++r)
            util += m.utilisation(r);
        res.set("serve.replica_utilisation",
                util / static_cast<double>(m.replicas.size()), "ratio");
        res.set("serve.rejected.queue_full",
                static_cast<double>(m.rejected_queue_full), "count");
        res.set("serve.rejected.deadline_exceeded",
                static_cast<double>(m.rejected_deadline), "count");
        res.set("serve.rejected.shutting_down",
                static_cast<double>(m.rejected_shutdown), "count");
        res.set("serve.rejected.breaker_open",
                static_cast<double>(m.rejected_breaker), "count");
        res.set("serve.rejected.replica_failure",
                static_cast<double>(m.rejected_replica_failure), "count");
        finishTrace(tr, rc.trace_path, res);
        return res;
    }

    const OpenLoop ol = openLoop(*srv, fx, rc.seconds, arrival_seed);
    checkServed(ol, ref, res);

    std::vector<double> lat_ms;
    std::vector<double> lag_ms, queue_ms, service_ms;
    std::size_t measured = 0, within = 0, ok = 0, hits = 0;
    double est_ps = 0, energy_j = 0, synops = 0;
    std::int64_t first_due = INT64_MAX, last_done = 0;
    for (std::size_t k = 0; k < ol.sent.size(); ++k) {
        const Sent &s = ol.sent[k];
        const serve::Response &r = ol.resp[k];
        if (!s.measured)
            continue;
        ++measured;
        first_due = std::min(first_due, s.due_ns);
        if (!r.ok())
            continue;
        ++ok;
        last_done = std::max(last_done, r.complete_ns);
        const double l = ms(r.complete_ns - s.due_ns);
        lat_ms.push_back(l);
        within += l <= kLimitMs;
        hits += r.result.prediction == fx.labels[s.sample];
        lag_ms.push_back(ms(r.submit_ns - s.due_ns));
        queue_ms.push_back(ms(r.queueNs()));
        service_ms.push_back(ms(r.serviceNs()));
        const auto &st = ref.per_sample[s.sample];
        est_ps += st.est_time_ps;
        energy_j += st.dynamic_energy_j;
        synops += static_cast<double>(st.synaptic_ops);
    }
    const Summary lat = summarize(lat_ms);
    res.detailSummary("latency_ms", lat);
    res.detailSummary("generator_lag_ms", summarize(lag_ms));
    res.detailSummary("queue_ms", summarize(queue_ms));
    res.detailSummary("service_ms", summarize(service_ms));
    const double okd = static_cast<double>(ok);
    const double sps =
        okd / (static_cast<double>(last_done - first_due) * 1e-9);
    res.set("setup_s", median(setup.setup_s), "s");
    res.set("host_samples_per_s", sps, "1/s");
    res.set("serve_p50_ms", lat.p50, "ms");
    res.set("serve_slo_share",
            static_cast<double>(within) / static_cast<double>(measured),
            "ratio");
    res.set("ok_share",
            1.0 - static_cast<double>(res.failed) /
                      static_cast<double>(res.attempted),
            "ratio");
    res.set("chip_ns_per_sample", est_ps / okd * 1e-3, "ns");
    res.set("chip_pj_per_sample", energy_j / okd * 1e12, "pJ");
    res.set("accuracy", static_cast<double>(hits) / okd, "ratio");
    res.set("gate_events_per_s", synops / okd * sps, "1/s");
    res.set("peak_rss_mb", peakRssMb(), "MB");
    const auto &m = ol.metrics;
    res.detail["rate_rps"] = kRateRps;
    res.detail["replicas"] = kReplicas;
    res.detail["latency_limit_ms"] = kLimitMs;
    res.detail["batch_size_mean"] = static_cast<double>(m.completed) /
                                    static_cast<double>(m.batches);
    return res;
}

} // namespace perfbench
