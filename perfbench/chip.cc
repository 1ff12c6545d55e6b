/**
 * @file
 * The chip workloads (offline_digits, pipeline_flagship) and the
 * fixture-side layers every fixture workload reports: setup phases,
 * compiler plan, a traced chip replay and engine probes.
 */

#include <algorithm>

#include "bench.hh"
#include "noc/transport.hh"

namespace perfbench {

using namespace sushi;

SetupRun
setupRepeated(Net net, std::uint64_t seed, int reps, Tracer &tr,
              const std::function<void(const Fixture &)> &construct)
{
    SetupRun out;
    const bool traced = tr.enabled();
    for (int r = 0; r < reps; ++r) {
        tr.setEnabled(traced && r == 0);
        const auto t0 = Clock::now();
        Fixture fx = buildFixture(net, seed, tr);
        {
            Scope s(tr, "engine", "construct");
            construct(fx);
        }
        out.setup_s.push_back(secondsSince(t0));
        out.phases.push_back(fx.times);
        if (r > 0)
            out.deterministic &= sameModel(out.fx, fx);
        out.fx = std::move(fx);
    }
    tr.setEnabled(traced);
    return out;
}

void
fixtureGates(const SetupRun &setup, const Reference &ref, Result &res)
{
    res.gate(setup.deterministic,
             "repeated setups built different models from one seed");
    res.gate(ref.merged.output_spikes > 0,
             "the trained model's output layer never fires");
    res.gate(ref.accuracy >= 0.5,
             "chip accuracy " + std::to_string(ref.accuracy) +
                 " is not far above the 10% chance level");
    res.detail["fixture.accuracy"] = ref.accuracy;
    res.detail["fixture.output_spikes"] =
        static_cast<double>(ref.merged.output_spikes);
    res.detail["fixture.held_out"] =
        static_cast<double>(ref.results.size());
}

void
setupLayerMetrics(const SetupRun &setup, Result &res)
{
    auto phase = [&](double SetupTimes::*field) {
        std::vector<double> v;
        for (const auto &p : setup.phases)
            v.push_back(p.*field);
        return median(v);
    };
    res.set("data.synth_s", phase(&SetupTimes::synth), "s");
    res.set("snn.train_s", phase(&SetupTimes::train), "s");
    res.set("snn.binarize_s", phase(&SetupTimes::binarize), "s");
    res.set("compiler.compile_s", phase(&SetupTimes::compile), "s");
    res.set("data.encode_s", phase(&SetupTimes::encode), "s");
}

namespace {

/** Per-sample stats a stepLayer-level replay reproduces (stepNetwork
 *  also sets time_steps and the plan gauges, which it bypasses). */
bool
sameStepStats(const chip::InferenceStats &a,
              const chip::InferenceStats &b)
{
    return a.frames == b.frames && a.input_pulses == b.input_pulses &&
           a.synaptic_ops == b.synaptic_ops &&
           a.output_spikes == b.output_spikes &&
           a.underflow_spikes == b.underflow_spikes &&
           a.multi_fires == b.multi_fires &&
           a.reload_events == b.reload_events &&
           a.est_time_ps == b.est_time_ps &&
           a.reload_time_ps == b.reload_time_ps &&
           a.dynamic_energy_j == b.dynamic_energy_j;
}

/**
 * Replays the engine's per-sample chip calls from outside, one span
 * per call. A single-chip model is driven one SushiChip::stepLayer
 * per layer ("unit" = layer); a multi-chip plan one stepNetwork per
 * stage chip plus NocTransport per cut ("unit" = stage), exactly as
 * InferenceEngine::runOnReplica sequences them.
 */
class ChipReplay
{
  public:
    ChipReplay(const Fixture &fx, const engine::EngineConfig &cfg)
        : model_(*fx.model), fx_(fx), stages_(model_.stageCount())
    {
        for (int s = 0; s < stages_; ++s)
            chips_.push_back(
                std::make_unique<chip::SushiChip>(model_.chip()));
        if (stages_ > 1 && cfg.noc.enabled)
            noc_ = std::make_unique<noc::NocTransport>(*model_.plan(),
                                                       cfg.noc);
        const auto &layers = model_.network().layers();
        if (stages_ == 1) {
            for (std::size_t l = 0; l < layers.size(); ++l) {
                names_.push_back("stepLayer.L" + std::to_string(l));
                dense_.push_back(static_cast<double>(
                    layers[l].inDim() * layers[l].outDim()));
            }
        } else {
            for (int s = 0; s < stages_; ++s) {
                names_.push_back("stepNetwork.S" + std::to_string(s));
                double d = 0;
                for (const auto &l : model_.stageNet(s).net->layers())
                    d += static_cast<double>(l.inDim() * l.outDim());
                dense_.push_back(d);
            }
        }
        pulse_ps_.assign(names_.size(), 0.0);
        reload_ps_.assign(names_.size(), 0.0);
    }

    std::size_t units() const { return names_.size(); }
    const std::string &unitName(std::size_t u) const
    {
        return names_[u];
    }
    double denseOps(std::size_t u) const { return dense_[u]; }

    /** Modelled pulse / reload ps per sample of unit @p u, summed
     *  over the first pass. */
    double pulsePs(std::size_t u) const
    {
        return pulse_ps_[u] / static_cast<double>(fx_.samples.size());
    }
    double reloadPs(std::size_t u) const
    {
        return reload_ps_[u] / static_cast<double>(fx_.samples.size());
    }

    /** One pass over the held-out set; returns the samples whose
     *  counts or stats differ from @p ref. */
    std::size_t pass(Tracer &tr, const Reference &ref)
    {
        std::size_t bad = 0;
        Scope whole(tr, "bench", "replay");
        for (std::size_t i = 0; i < fx_.samples.size(); ++i) {
            Scope sample(tr, "bench", "sample",
                         static_cast<std::int64_t>(i));
            engine::SampleResult res;
            chip::InferenceStats st = stages_ == 1
                                          ? single(tr, i, res.counts)
                                          : staged(tr, i, res.counts);
            res.prediction = static_cast<int>(
                std::max_element(res.counts.begin(),
                                 res.counts.end()) -
                res.counts.begin());
            const auto &want = ref.per_sample[i];
            const bool same_stats =
                stages_ == 1
                    ? sameStepStats(st, want)
                    : engine::statsJson(st) == engine::statsJson(want);
            bad += !(same_stats &&
                     res.counts == ref.results[i].counts &&
                     res.prediction == ref.results[i].prediction);
        }
        first_pass_ = false;
        return bad;
    }

    /** Host ns sample @p i spends inside chip calls, each timed with
     *  two clock reads and no span. */
    double chipNs(Tracer &tr, std::size_t i)
    {
        std::vector<int> counts;
        timing_ = true;
        chip_ns_ = 0;
        if (stages_ == 1)
            single(tr, i, counts);
        else
            staged(tr, i, counts);
        timing_ = false;
        return chip_ns_;
    }

  private:
    /** One chip call: a span, or a plain timing under chipNs. */
    template <class F>
    void chipCall(Tracer &tr, std::size_t u, std::int64_t id, F &&f)
    {
        if (!timing_) {
            Scope s(tr, "chip", names_[u], id);
            f();
            return;
        }
        const auto t = Clock::now();
        f();
        chip_ns_ += secondsSince(t) * 1e9;
    }

    /** Charge unit @p u the modelled time @p c accrued since it
     *  read @p est0 / @p reload0 (first pass only). */
    void account(std::size_t u, double est0, double reload0,
                 const chip::SushiChip &c)
    {
        if (!first_pass_)
            return;
        const double reload = c.stats().reload_time_ps - reload0;
        reload_ps_[u] += reload;
        pulse_ps_[u] += c.stats().est_time_ps - est0 - reload;
    }

    chip::InferenceStats single(Tracer &tr, std::size_t i,
                                std::vector<int> &counts)
    {
        chip::SushiChip &c = *chips_[0];
        const auto &net = model_.stageNet(0);
        c.resetStats();
        c.beginFrame();
        counts.assign(net.net->layers().back().outDim(), 0);
        for (const auto &frame : fx_.samples[i]) {
            chip::PulseVector act(frame.begin(), frame.end());
            for (std::size_t l = 0; l < net.layers.size(); ++l) {
                const double est0 = c.stats().est_time_ps;
                const double reload0 = c.stats().reload_time_ps;
                chipCall(tr, l, static_cast<std::int64_t>(i), [&] {
                    act = c.stepLayer(net.layers[l],
                                      net.net->layers()[l], act);
                });
                account(l, est0, reload0, c);
            }
            for (std::size_t o = 0; o < counts.size(); ++o)
                counts[o] += act[o];
            c.countOutputSpikes(act);
        }
        c.finishRun();
        return c.stats();
    }

    chip::InferenceStats staged(Tracer &tr, std::size_t i,
                                std::vector<int> &counts)
    {
        const auto id = static_cast<std::int64_t>(i);
        for (auto &c : chips_)
            c->resetStats();
        for (auto &c : chips_)
            c->beginFrame();
        if (noc_)
            noc_->beginSample();
        counts.assign(model_.network().layers().back().outDim(), 0);
        for (const auto &frame : fx_.samples[i]) {
            chip::PulseVector act(frame.begin(), frame.end());
            if (noc_) {
                Scope s(tr, "noc", "hostIngress", id);
                noc_->beginStep();
                noc_->hostIngress(act);
            }
            for (int s = 0; s < stages_; ++s) {
                chip::SushiChip &c = *chips_[static_cast<std::size_t>(s)];
                const double est0 = c.stats().est_time_ps;
                const double reload0 = c.stats().reload_time_ps;
                chipCall(tr, static_cast<std::size_t>(s), id, [&] {
                    act = c.stepNetwork(model_.stageNet(s), act);
                });
                account(static_cast<std::size_t>(s), est0, reload0, c);
                if (noc_ && s < stages_ - 1) {
                    Scope sc(tr, "noc", "transferCut", id);
                    noc_->transferCut(s, act);
                }
            }
            for (std::size_t o = 0; o < counts.size(); ++o)
                counts[o] += act[o];
            chips_.back()->countOutputSpikes(act);
            if (noc_) {
                Scope s(tr, "noc", "hostEgress", id);
                noc_->hostEgress(act);
                noc_->endStep();
            }
        }
        for (auto &c : chips_)
            c->finishRun();
        // The engine's per-sample merge, field for field.
        chip::InferenceStats delta = chips_[0]->stats();
        for (int s = 1; s < stages_; ++s)
            delta.accumulatePipeline(
                chips_[static_cast<std::size_t>(s)]->stats());
        if (noc_) {
            Scope s(tr, "noc", "finishSample", id);
            const noc::NocSampleStats ns = noc_->finishSample();
            delta.noc_packets += ns.packets;
            delta.noc_flits += ns.flits;
            delta.noc_flit_hops += ns.flit_hops;
            delta.noc_hol_stall_cycles += ns.hol_stall_cycles;
            delta.noc_backpressure_stalls += ns.backpressure_stalls;
            delta.noc_latency_cycles += ns.latency_cycles;
            delta.noc_max_step_link_flits = std::max(
                delta.noc_max_step_link_flits, ns.max_step_link_flits);
            delta.noc_latency_ps += ns.latency_ps;
            delta.noc_max_link_utilisation = std::max(
                delta.noc_max_link_utilisation, ns.max_link_utilisation);
            delta.noc_cut_flits = ns.cut_flits;
            delta.est_time_ps += ns.latency_ps;
        }
        delta.dynamic_energy_j = chip::dynamicEnergyJ(delta.synaptic_ops);
        return delta;
    }

    const engine::CompiledModel &model_;
    const Fixture &fx_;
    int stages_;
    std::vector<std::unique_ptr<chip::SushiChip>> chips_;
    std::unique_ptr<noc::NocTransport> noc_;
    std::vector<std::string> names_;
    std::vector<double> dense_;
    std::vector<double> pulse_ps_, reload_ps_;
    bool first_pass_ = true;
    bool timing_ = false;
    double chip_ns_ = 0;
};

double
spanNs(const Tracer::Span &s)
{
    return static_cast<double>(s.end_ns - s.start_ns);
}

/** The first @p n held-out samples, wrapping around the set. */
std::vector<engine::Sample>
batchOf(const Fixture &fx, std::size_t first, std::size_t n)
{
    std::vector<engine::Sample> out;
    for (std::size_t k = 0; k < n; ++k)
        out.push_back(fx.samples[(first + k) % fx.samples.size()]);
    return out;
}

/** Held-out samples the oracle and plan gates check. */
constexpr std::size_t kGateSamples = 64;

/** Samples per batch of the engine probes. */
constexpr std::size_t kProbeBatch = 64;

/** Median samples/s of engine.run on @p batch over @p budget_s. */
double
engineThroughput(engine::InferenceEngine &eng,
                 const std::vector<engine::Sample> &batch,
                 const Reference &ref, double budget_s, Tracer &tr,
                 Result &res)
{
    std::vector<double> rates;
    const auto t0 = Clock::now();
    while (rates.size() < 3 || secondsSince(t0) < budget_s) {
        const auto t = Clock::now();
        engine::EngineRun run;
        {
            Scope s(tr, "engine", "InferenceEngine::run");
            run = eng.run(batch);
        }
        rates.push_back(static_cast<double>(batch.size()) /
                        secondsSince(t));
        res.attempted += batch.size();
        for (std::size_t k = 0; k < batch.size(); ++k)
            res.failed += run.samples[k].counts !=
                          ref.results[k % ref.results.size()].counts;
    }
    return median(rates);
}

} // namespace

void
chipLayerMetrics(const Fixture &fx, const Reference &ref,
                 const engine::EngineConfig &cfg, double budget_s,
                 Tracer &tr, Result &res)
{
    const auto &model = *fx.model;
    double reloads = 0, jj = 0;
    for (int s = 0; s < model.stageCount(); ++s) {
        reloads += static_cast<double>(model.stageNet(s).totalReloads());
        jj = std::max(jj, model.stageNet(s).budget.jjUtilisation());
    }
    res.set("compiler.reloads_per_step", reloads, "count");
    res.set("compiler.stages", model.stageCount(), "count");
    res.set("compiler.jj_utilisation", jj, "ratio");

    const double frames = static_cast<double>(ref.merged.frames);
    const auto &m = ref.merged;
    res.set("chip.synops_per_sample",
            static_cast<double>(m.synaptic_ops) / frames, "count");
    res.set("chip.reload_events_per_sample",
            static_cast<double>(m.reload_events) / frames, "count");
    res.set("chip.output_spikes_per_sample",
            static_cast<double>(m.output_spikes) / frames, "count");
    res.set("chip.multi_fires_per_sample",
            static_cast<double>(m.multi_fires) / frames, "count");
    res.set("noc.flits_per_sample",
            static_cast<double>(m.noc_flits) / frames, "count");
    res.set("noc.flit_hops_per_sample",
            static_cast<double>(m.noc_flit_hops) / frames, "count");
    res.set("noc.hol_stall_cycles_per_sample",
            static_cast<double>(m.noc_hol_stall_cycles) / frames,
            "count");
    res.set("noc.backpressure_stalls_per_sample",
            static_cast<double>(m.noc_backpressure_stalls) / frames,
            "count");
    res.set("noc.latency_ps_per_sample", m.noc_latency_ps / frames,
            "ps");

    // Replay: alternate untraced and traced passes over the held-out
    // set; their wall-time ratio is the cost of the spans. Spans of
    // traced passes after the fourth are recorded, then dropped, to
    // bound the trace file.
    ChipReplay replay(fx, cfg);
    std::vector<double> plain_s, traced_s;
    std::size_t first_span = tr.spans().size();
    const bool traced = tr.enabled();
    const auto t0 = Clock::now();
    while (traced_s.size() < 2 || secondsSince(t0) < budget_s * 0.4) {
        for (bool on : {false, true}) {
            tr.setEnabled(traced && on);
            const std::size_t kept = tr.spans().size();
            const auto t = Clock::now();
            const std::size_t bad = replay.pass(tr, ref);
            (on ? traced_s : plain_s).push_back(secondsSince(t));
            if (on && traced_s.size() > 4)
                tr.truncate(kept);
            res.attempted += fx.samples.size();
            res.failed += bad;
            res.gate(bad == 0, "chip replay differs from the engine on " +
                                   std::to_string(bad) + " samples");
        }
    }
    tr.setEnabled(traced);
    res.set("trace.overhead_share",
            median(traced_s) / median(plain_s) - 1.0, "ratio");

    // Attribute the traced passes' spans.
    const auto &spans = tr.spans();
    std::vector<std::vector<double>> unit_ns(replay.units());
    std::vector<double> transfer_ns;
    double sample_total = 0, chip_total = 0, noc_total = 0, dense = 0;
    for (std::size_t k = first_span; k < spans.size(); ++k) {
        const auto &s = spans[k];
        if (s.layer == "bench" && s.name == "sample") {
            sample_total += spanNs(s);
        } else if (s.layer == "chip") {
            chip_total += spanNs(s);
            for (std::size_t u = 0; u < replay.units(); ++u)
                if (s.name == replay.unitName(u)) {
                    unit_ns[u].push_back(spanNs(s));
                    dense += replay.denseOps(u);
                }
        } else if (s.layer == "noc") {
            noc_total += spanNs(s);
            if (s.name == "transferCut")
                transfer_ns.push_back(spanNs(s));
        }
    }
    for (std::size_t u = 0; u < replay.units(); ++u) {
        const Summary sum = summarize(unit_ns[u]);
        const std::string L = ".L" + std::to_string(u);
        res.set("chip.step_ns_p50" + L, sum.p50, "ns");
        res.set("chip.step_ns_p99" + L, sum.p99, "ns");
        res.detailSummary("chip.step_ns" + L, sum);
        res.set("chip.pulse_ps" + L, replay.pulsePs(u), "ps");
        res.set("chip.reload_ps" + L, replay.reloadPs(u), "ps");
    }
    res.set("chip.step_share", chip_total / sample_total, "ratio");
    res.set("chip.dense_synops_per_s", dense / chip_total * 1e9, "1/s");
    res.set("noc.transfer_ns", median(transfer_ns), "ns");
    res.set("noc.host_share", noc_total / sample_total, "ratio");

    // Engine probes: throughput at 1 and N replicas, and one
    // shard_block through runOnReplica against the replay's chip
    // time for as many samples.
    const double probe_s = budget_s * 0.15;
    const auto batch = batchOf(fx, 0, kProbeBatch);
    engine::EngineConfig one = cfg;
    one.replicas = 1;
    engine::InferenceEngine eng1(fx.model, one);
    engine::InferenceEngine engN(fx.model, cfg);
    const double single =
        engineThroughput(eng1, batch, ref, probe_s, tr, res);
    const double multi =
        engineThroughput(engN, batch, ref, probe_s, tr, res);
    res.set("engine.single_replica_samples_per_s", single, "1/s");
    res.set("engine.scaling", multi / single, "ratio");
    res.detail["engine.replicas"] = engN.replicas();

    // Each block's chip time is measured right after the block runs
    // through runOnReplica, so host speed drift cancels in the ratio.
    const std::size_t block = cfg.shard_block;
    std::vector<double> ror_ns, chip_share;
    const auto t1 = Clock::now();
    for (std::size_t b = 0;
         ror_ns.size() < 10 || secondsSince(t1) < probe_s; ++b) {
        const std::size_t first = (b * block) % fx.samples.size();
        const auto blk = batchOf(fx, first, block);
        const auto t = Clock::now();
        engine::ReplicaRun rr;
        {
            Scope s(tr, "engine", "runOnReplica");
            rr = eng1.runOnReplica(0, blk);
        }
        ror_ns.push_back(secondsSince(t) * 1e9);
        double chip_ns = 0;
        for (std::size_t k = 0; k < block; ++k)
            chip_ns += replay.chipNs(tr, (first + k) % fx.samples.size());
        chip_share.push_back(chip_ns / ror_ns.back());
        res.attempted += block;
        for (std::size_t k = 0; k < block; ++k)
            res.failed += rr.results[k].counts !=
                          ref.results[(first + k) % ref.results.size()]
                              .counts;
    }
    res.set("engine.run_on_replica_ns", median(ror_ns), "ns");
    res.set("engine.overhead_share", 1.0 - median(chip_share), "ratio");
}

void
finishTrace(const Tracer &tr, const std::string &path, Result &res)
{
    const auto self = tr.selfNsByLayer();
    double total = 0;
    for (const auto &[layer, ns] : self)
        total += ns;
    for (const auto &[layer, ns] : self)
        res.set("self_share." + layer, ns / total, "ratio");
    res.detail["trace.spans"] = static_cast<double>(tr.spans().size());
    if (!path.empty())
        res.gate(tr.writeChromeJson(path), "cannot write " + path);
}

namespace {

/**
 * Shared body of the two engine workloads: the fixture behind an
 * InferenceEngine, offline batches of @p batch held-out samples,
 * each latency checked against @p limit_ms.
 */
Result
runEngineWorkload(const RunConfig &rc, Net net,
                  const engine::EngineConfig &cfg, std::size_t batch,
                  double limit_ms,
                  const std::function<void(const SetupRun &,
                                           const Reference &,
                                           Result &)> &gates)
{
    Result res;
    Tracer tr;
    tr.setEnabled(rc.trace);
    std::unique_ptr<engine::InferenceEngine> eng;
    const SetupRun setup =
        setupRepeated(net, rc.seed, 3, tr, [&](const Fixture &fx) {
            eng = std::make_unique<engine::InferenceEngine>(fx.model,
                                                            cfg);
        });
    const Fixture &fx = setup.fx;
    engine::EngineConfig one = cfg;
    one.replicas = 1;
    const Reference ref = referenceRun(fx, one);
    fixtureGates(setup, ref, res);
    gates(setup, ref, res);

    if (rc.trace) {
        setupLayerMetrics(setup, res);
        chipLayerMetrics(fx, ref, cfg, rc.seconds, tr, res);
        finishTrace(tr, rc.trace_path, res);
        return res;
    }

    // Batches are windows of the held-out set, wrapping around it;
    // each is copied into place before its timed run.
    const std::size_t n = fx.samples.size();
    std::size_t first = 0;
    std::vector<engine::Sample> work = batchOf(fx, first, batch);
    eng->run(work); // warm the worker pool and caches

    std::vector<double> lat_ms;
    const auto t0 = Clock::now();
    for (std::size_t b = 0; secondsSince(t0) < rc.seconds; ++b) {
        if ((b * batch) % n != first) {
            first = (b * batch) % n;
            for (std::size_t k = 0; k < batch; ++k)
                work[k] = fx.samples[(first + k) % n];
        }
        const auto t = Clock::now();
        const engine::EngineRun run = eng->run(work);
        lat_ms.push_back(secondsSince(t) * 1e3);
        res.attempted += batch;
        for (std::size_t k = 0; k < batch; ++k)
            res.failed += run.samples[k].counts !=
                          ref.results[(first + k) % n].counts;
    }
    res.gate(res.failed == 0, std::to_string(res.failed) +
                                  " engine results differ from the "
                                  "reference run");

    const Summary lat = summarize(lat_ms);
    res.detailSummary("batch_ms", lat);
    std::size_t within = 0;
    for (double l : lat_ms)
        within += l <= limit_ms;
    const double frames = static_cast<double>(ref.merged.frames);
    const double sps = static_cast<double>(batch) / (lat.p50 * 1e-3);
    res.set("setup_s", median(setup.setup_s), "s");
    res.set("host_samples_per_s", sps, "1/s");
    res.set("serve_p50_ms", lat.p50, "ms");
    res.set("serve_slo_share",
            static_cast<double>(within) /
                static_cast<double>(lat_ms.size()),
            "ratio");
    res.set("ok_share",
            1.0 - static_cast<double>(res.failed) /
                      static_cast<double>(res.attempted),
            "ratio");
    res.set("chip_ns_per_sample", ref.merged.est_time_ps / frames * 1e-3,
            "ns");
    res.set("chip_pj_per_sample",
            ref.merged.dynamic_energy_j / frames * 1e12, "pJ");
    res.set("accuracy", ref.accuracy, "ratio");
    res.set("gate_events_per_s",
            static_cast<double>(ref.merged.synaptic_ops) / frames * sps,
            "1/s");
    res.set("peak_rss_mb", peakRssMb(), "MB");
    res.detail["batch"] = batch;
    res.detail["replicas"] = eng->replicas();
    res.detail["latency_limit_ms"] = limit_ms;
    return res;
}

} // namespace

Result
runOfflineDigits(const RunConfig &rc)
{
    engine::EngineConfig cfg;
    cfg.replicas = hostThreads();
    return runEngineWorkload(
        rc, Net::Digits, cfg, /*batch=*/1000, /*limit_ms=*/200.0,
        [](const SetupRun &setup, const Reference &ref, Result &res) {
            // The engine's fast kernel against the Npe-object oracle
            // on a fixed subset of the held-out set.
            const Fixture &fx = setup.fx;
            chip::SushiChip oracle(fx.model->chip());
            oracle.setPackedKernels(false);
            std::size_t bad = 0;
            for (std::size_t i = 0; i < kGateSamples; ++i) {
                oracle.resetStats();
                const auto counts = oracle.inferCounts(
                    fx.model->compiled(), fx.samples[i]);
                bad += counts != ref.results[i].counts ||
                       engine::statsJson(oracle.stats()) !=
                           engine::statsJson(ref.per_sample[i]);
            }
            res.gate(bad == 0, "engine differs from the Npe oracle on " +
                                   std::to_string(bad) + " samples");
        });
}

Result
runPipelineFlagship(const RunConfig &rc)
{
    engine::EngineConfig cfg;
    cfg.replicas = hostThreads();
    cfg.noc.enabled = true;
    return runEngineWorkload(
        rc, Net::Flagship, cfg, /*batch=*/128, /*limit_ms=*/500.0,
        [&](const SetupRun &setup, const Reference &ref, Result &res) {
            const Fixture &fx = setup.fx;
            res.gate(fx.model->stageCount() >= 2,
                     "the flagship plan has fewer than 2 stages");
            // Transport and plan checks on a fixed subset.
            Fixture sub = fx;
            sub.samples.resize(kGateSamples);
            sub.labels.resize(kGateSamples);
            const std::vector<engine::SampleResult> want(
                ref.results.begin(), ref.results.begin() + kGateSamples);
            engine::EngineConfig ideal;
            ideal.replicas = 1;
            const Reference no_noc = referenceRun(sub, ideal);
            sub.model = compileUnbounded(fx);
            const Reference one_chip = referenceRun(sub, ideal);
            res.gate(sameResults(want, no_noc.results),
                     "NoC transport changed the flagship's counts");
            res.gate(sameResults(want, one_chip.results),
                     "the multi-chip plan differs from one unbounded "
                     "chip");
            res.gate(ref.merged.noc_flits > 0,
                     "the NoC carried no flits");
        });
}

} // namespace perfbench
