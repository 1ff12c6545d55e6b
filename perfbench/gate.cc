/**
 * @file
 * gate_npe: the gate-level NPE counter on the event-driven SFQ
 * simulator. Eight independent 10-SC NPE gates each count 20k input
 * pulses; the fleet runs on the partitioned sfq::ParallelSimulator at
 * nproc threads. The seed sets each gate's inter-pulse gaps, every
 * one at least the safe pulse spacing, so the count — and with it the
 * event total and checksum — is the same for every seed while the
 * simulated time is not.
 */

#include <memory>

#include "bench.hh"
#include "common/rng.hh"
#include "npe/npe.hh"
#include "sfq/cell_params.hh"
#include "sfq/constraints.hh"
#include "sfq/event_queue.hh"
#include "sfq/netlist.hh"
#include "sfq/parallel_simulator.hh"
#include "sfq/simulator.hh"

namespace perfbench {

using namespace sushi;

namespace {

constexpr int kPulses = 20000;
constexpr int kNumSc = 10;
constexpr int kGates = 8;
/** Simulated events of one gate counting kPulses pulses. */
constexpr std::uint64_t kEventsPerGate = 339747;
/** Latency limit of one fleet run. */
constexpr double kLimitMs = 1000.0;

/** Seeded injection times of each gate's set pulse and input pulses. */
std::vector<std::vector<Tick>>
schedules(std::uint64_t seed, int gates)
{
    const Tick gap = sfq::safePulseSpacing();
    std::vector<std::vector<Tick>> out(static_cast<std::size_t>(gates));
    for (int g = 0; g < gates; ++g) {
        Rng rng(subSeed(seed, 100 + static_cast<std::uint64_t>(g)));
        Tick t = gap;
        auto &s = out[static_cast<std::size_t>(g)];
        s.push_back(t); // set1
        for (int i = 0; i < kPulses; ++i) {
            t += gap + static_cast<Tick>(
                           rng.below(static_cast<std::uint64_t>(gap / 4)));
            s.push_back(t);
        }
    }
    return out;
}

/** A simulator holding one NPE gate per schedule, pulses injected. */
struct Fleet
{
    sfq::Simulator sim;
    sfq::Netlist net{sim};
    std::vector<std::unique_ptr<npe::NpeGate>> gates;
};

std::unique_ptr<Fleet>
buildFleet(const std::vector<std::vector<Tick>> &sched, Tracer &tr)
{
    Scope s(tr, "sfq", "build");
    auto f = std::make_unique<Fleet>();
    f->sim.setViolationPolicy(sfq::ViolationPolicy::Ignore);
    for (std::size_t g = 0; g < sched.size(); ++g) {
        f->gates.push_back(std::make_unique<npe::NpeGate>(
            f->net, "npe" + std::to_string(g), kNumSc));
        f->gates.back()->injectSet1(sched[g][0]);
        for (std::size_t i = 1; i < sched[g].size(); ++i)
            f->gates.back()->injectIn(sched[g][i]);
    }
    return f;
}

struct FleetRun
{
    double run_s = 0;
    std::uint64_t events = 0;
    Tick end = 0;
    int gates_ok = 0;
};

/** Build a fleet from @p sched, then run it on @p threads lanes
 *  (1 = the sequential sfq::Simulator); only the run is timed. */
FleetRun
fleetRun(const std::vector<std::vector<Tick>> &sched, int threads,
         std::uint64_t want_checksum, Tracer &tr)
{
    FleetRun r;
    const auto f = buildFleet(sched, tr);
    const auto t0 = Clock::now();
    if (threads <= 1) {
        Scope s(tr, "sfq", "Simulator::run");
        f->sim.run();
    } else {
        Scope s(tr, "sfq", "ParallelSimulator::run");
        sfq::ParallelSimulator::Options opts;
        opts.threads = threads;
        sfq::ParallelSimulator psim(f->sim, opts);
        psim.run();
    }
    r.run_s = secondsSince(t0);
    r.events = f->sim.eventsExecuted();
    r.end = f->sim.now();
    for (auto &g : f->gates)
        r.gates_ok += g->value() + g->outSink().count() == want_checksum;
    return r;
}

/** Queue-only events per second: push/pop POD events, no cells. */
double
queueEventsPerSec()
{
    sfq::EventQueue q;
    std::uint64_t ops = 0;
    sfq::EventQueue::Event ev{};
    const auto t0 = Clock::now();
    for (int r = 0; r < 20; ++r) {
        for (int i = 0; i < 10000; ++i)
            q.push((i * 7) % 997 + r, i, 0);
        while (q.popNext(kTickNever, ev))
            ++ops;
    }
    return static_cast<double>(ops) / secondsSince(t0);
}

} // namespace

Result
runGateNpe(const RunConfig &rc)
{
    Result res;
    Tracer tr;
    tr.setEnabled(rc.trace);
    const int threads = hostThreads();

    // Pulse-exact reference: the behavioural counter.
    npe::Npe ideal(kNumSc);
    ideal.setPolarity(npe::Polarity::Excitatory);
    const std::uint64_t spikes =
        ideal.addPulses(static_cast<std::uint64_t>(kPulses));
    const std::uint64_t want = ideal.value() + spikes;

    const auto fleet = schedules(rc.seed, kGates);
    const std::vector<std::vector<Tick>> one(fleet.begin(),
                                             fleet.begin() + 1);
    const FleetRun single = fleetRun(one, 1, want, tr);
    res.gate(single.gates_ok == 1 && single.events == kEventsPerGate,
             "one gate gave " + std::to_string(single.events) +
                 " events (want " + std::to_string(kEventsPerGate) +
                 ") or a wrong checksum (want " + std::to_string(want) +
                 ")");
    res.detail["sfq.checksum_want"] = static_cast<double>(want);

    auto check = [&](const FleetRun &r, std::size_t gates) {
        res.attempted += gates;
        res.failed += gates - static_cast<std::size_t>(r.gates_ok);
        res.gate(r.events == gates * kEventsPerGate &&
                     static_cast<std::size_t>(r.gates_ok) == gates,
                 "a fleet run gave " + std::to_string(r.events) +
                     " events or a wrong checksum");
    };

    if (rc.trace) {
        res.set("sfq.events_per_gate", static_cast<double>(single.events),
                "count");
        res.set("sfq.checksum", static_cast<double>(want), "count");
        // One gate on the sequential simulator, alternating untraced
        // and traced runs; their ratio is the cost of the spans.
        std::vector<double> plain, traced, eps;
        auto t0 = Clock::now();
        while (traced.size() < 3 || secondsSince(t0) < rc.seconds * 0.3) {
            for (bool on : {false, true}) {
                tr.setEnabled(on);
                const auto t = Clock::now();
                const FleetRun r = fleetRun(one, 1, want, tr);
                (on ? traced : plain).push_back(secondsSince(t));
                eps.push_back(static_cast<double>(r.events) / r.run_s);
                check(r, 1);
            }
        }
        tr.setEnabled(true);
        res.set("trace.overhead_share", median(traced) / median(plain) - 1,
                "ratio");
        res.set("sfq.seq_events_per_s", median(eps), "1/s");

        std::vector<double> q;
        t0 = Clock::now();
        while (q.size() < 3 || secondsSince(t0) < rc.seconds * 0.1)
            q.push_back(queueEventsPerSec());
        res.set("sfq.queue_events_per_s", median(q), "1/s");

        std::vector<double> seq_eps, par_eps;
        t0 = Clock::now();
        while (par_eps.size() < 3 || secondsSince(t0) < rc.seconds * 0.5) {
            for (int th : {1, threads}) {
                const FleetRun r = fleetRun(fleet, th, want, tr);
                (th == 1 ? seq_eps : par_eps)
                    .push_back(static_cast<double>(r.events) / r.run_s);
                check(r, fleet.size());
            }
        }
        res.set("sfq.parallel_scaling", median(par_eps) / median(seq_eps),
                "ratio");
        finishTrace(tr, rc.trace_path, res);
        return res;
    }

    // Set-up: build the fleet several times before any timed run,
    // each into fresh memory (the earlier builds stay alive), so every
    // build pays the same page faults instead of reusing whatever
    // the allocator kept from the last one.
    std::vector<double> setup_s;
    {
        std::vector<std::unique_ptr<Fleet>> built;
        for (int i = 0; i < 9; ++i) {
            const auto t = Clock::now();
            built.push_back(buildFleet(fleet, tr));
            setup_s.push_back(secondsSince(t));
        }
    }
    fleetRun(fleet, threads, want, tr); // warm-up, not measured
    std::vector<double> run_ms, eps;
    Tick end = 0;
    const auto t0 = Clock::now();
    while (run_ms.size() < 5 || secondsSince(t0) < rc.seconds) {
        const FleetRun r = fleetRun(fleet, threads, want, tr);
        run_ms.push_back(r.run_s * 1e3);
        eps.push_back(static_cast<double>(r.events) / r.run_s);
        end = r.end;
        check(r, fleet.size());
    }

    const Summary lat = summarize(run_ms);
    res.detailSummary("fleet_run_ms", lat);
    res.detailSummary("setup_s", summarize(setup_s));
    std::size_t within = 0;
    for (double l : run_ms)
        within += l <= kLimitMs;
    const double pulses = static_cast<double>(kGates) * kPulses;
    res.set("setup_s", median(setup_s), "s");
    res.set("host_samples_per_s", pulses / (lat.p50 * 1e-3), "1/s");
    res.set("serve_p50_ms", lat.p50, "ms");
    res.set("serve_slo_share",
            static_cast<double>(within) /
                static_cast<double>(run_ms.size()),
            "ratio");
    res.set("ok_share",
            1.0 - static_cast<double>(res.failed) /
                      static_cast<double>(res.attempted),
            "ratio");
    // Simulated circuit time per counted pulse (the gates run side by
    // side), and one JJ switch of energy per simulated event.
    res.set("chip_ns_per_sample",
            static_cast<double>(end) / kTicksPerNs / kPulses, "ns");
    res.set("chip_pj_per_sample",
            static_cast<double>(kEventsPerGate) * sfq::switchEnergyPerJj() /
                kPulses * 1e12,
            "pJ");
    res.set("accuracy",
            1.0 - static_cast<double>(res.failed) /
                      static_cast<double>(res.attempted),
            "ratio");
    res.set("gate_events_per_s", median(eps), "1/s");
    res.set("peak_rss_mb", peakRssMb(), "MB");
    res.detail["gates"] = kGates;
    res.detail["threads"] = threads;
    res.detail["latency_limit_ms"] = kLimitMs;
    return res;
}

} // namespace perfbench
