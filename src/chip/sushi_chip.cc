#include "chip/sushi_chip.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.hh"
#include "fabric/resource_model.hh"
#include "fabric/timing_model.hh"
#include "sfq/cell_params.hh"

namespace sushi::chip {

namespace {

/** Popcount of (act & mask) over scheduled positions [begin, end). */
std::uint64_t
popcountRange(const std::uint64_t *act, const std::uint64_t *mask,
              int begin, int end)
{
    std::uint64_t count = 0;
    const int w0 = begin / 64;
    const int w1 = (end + 63) / 64;
    for (int w = w0; w < w1; ++w) {
        std::uint64_t bits = act[w] & mask[w];
        if (w == w0 && begin % 64)
            bits &= ~std::uint64_t{0} << (begin % 64);
        if (w == w1 - 1 && end % 64)
            bits &= ~std::uint64_t{0} >> (64 - end % 64);
        count += static_cast<std::uint64_t>(std::popcount(bits));
    }
    return count;
}

/**
 * Closed-form NPE counter: the exact recurrence Npe::addPulses
 * implements (carry per wrap past 2^K counting up, borrow per wrap
 * below zero counting down) without the per-SC bit materialisation.
 * Any divergence from the Npe object is a bug the packed-vs-oracle
 * fuzzer catches.
 */
struct FastCounter
{
    std::uint64_t v;      ///< counter value
    std::uint64_t states; ///< 2^K

    std::uint64_t addUp(std::uint64_t count)
    {
        const std::uint64_t spikes = (v + count) / states;
        v = (v + count) % states;
        return spikes;
    }

    std::uint64_t addDown(std::uint64_t count)
    {
        if (count <= v) {
            v -= count;
            return 0;
        }
        const std::uint64_t borrows = (count - v + states - 1) / states;
        v = (v + borrows * states - count) % states;
        return borrows;
    }
};

/** Element-wise sum of per-cut flit counters (ragged-safe). */
void
mergeCutFlits(std::vector<std::uint64_t> &into,
              const std::vector<std::uint64_t> &from)
{
    if (into.size() < from.size())
        into.resize(from.size(), 0);
    for (std::size_t c = 0; c < from.size(); ++c)
        into[c] += from[c];
}

} // namespace

void
InferenceStats::accumulate(const InferenceStats &other)
{
    frames += other.frames;
    time_steps += other.time_steps;
    input_pulses += other.input_pulses;
    synaptic_ops += other.synaptic_ops;
    output_spikes += other.output_spikes;
    underflow_spikes += other.underflow_spikes;
    multi_fires += other.multi_fires;
    reload_events += other.reload_events;
    failed_npes = std::max(failed_npes, other.failed_npes);
    remapped_neurons += other.remapped_neurons;
    degraded_passes += other.degraded_passes;
    disabled_neurons = std::max(disabled_neurons,
                                other.disabled_neurons);
    plan_reloads = std::max(plan_reloads, other.plan_reloads);
    jj_utilisation = std::max(jj_utilisation, other.jj_utilisation);
    area_utilisation =
        std::max(area_utilisation, other.area_utilisation);
    noc_packets += other.noc_packets;
    noc_flits += other.noc_flits;
    noc_flit_hops += other.noc_flit_hops;
    noc_hol_stall_cycles += other.noc_hol_stall_cycles;
    noc_backpressure_stalls += other.noc_backpressure_stalls;
    noc_latency_cycles += other.noc_latency_cycles;
    noc_max_step_link_flits = std::max(noc_max_step_link_flits,
                                       other.noc_max_step_link_flits);
    noc_latency_ps += other.noc_latency_ps;
    noc_max_link_utilisation = std::max(
        noc_max_link_utilisation, other.noc_max_link_utilisation);
    mergeCutFlits(noc_cut_flits, other.noc_cut_flits);
    est_time_ps += other.est_time_ps;
    reload_time_ps += other.reload_time_ps;
    dynamic_energy_j += other.dynamic_energy_j;
}

void
InferenceStats::accumulatePipeline(const InferenceStats &stage)
{
    frames = std::max(frames, stage.frames);
    time_steps = std::max(time_steps, stage.time_steps);
    input_pulses += stage.input_pulses;
    synaptic_ops += stage.synaptic_ops;
    output_spikes += stage.output_spikes;
    underflow_spikes += stage.underflow_spikes;
    multi_fires += stage.multi_fires;
    reload_events += stage.reload_events;
    failed_npes = std::max(failed_npes, stage.failed_npes);
    remapped_neurons += stage.remapped_neurons;
    degraded_passes += stage.degraded_passes;
    // Per-chip plan diagnostics add up across the plan's stages;
    // utilisation reports the worst chip of the plan.
    disabled_neurons += stage.disabled_neurons;
    plan_reloads += stage.plan_reloads;
    jj_utilisation = std::max(jj_utilisation, stage.jj_utilisation);
    area_utilisation =
        std::max(area_utilisation, stage.area_utilisation);
    // Transport is accounted once per replica group (the engine
    // folds it in after this merge), but stray per-stage records
    // still merge with counter/gauge semantics.
    noc_packets += stage.noc_packets;
    noc_flits += stage.noc_flits;
    noc_flit_hops += stage.noc_flit_hops;
    noc_hol_stall_cycles += stage.noc_hol_stall_cycles;
    noc_backpressure_stalls += stage.noc_backpressure_stalls;
    noc_latency_cycles += stage.noc_latency_cycles;
    noc_max_step_link_flits = std::max(noc_max_step_link_flits,
                                       stage.noc_max_step_link_flits);
    noc_latency_ps += stage.noc_latency_ps;
    noc_max_link_utilisation = std::max(
        noc_max_link_utilisation, stage.noc_max_link_utilisation);
    mergeCutFlits(noc_cut_flits, stage.noc_cut_flits);
    // Stages run sequentially within a time step: latency adds.
    est_time_ps += stage.est_time_ps;
    reload_time_ps += stage.reload_time_ps;
    dynamic_energy_j += stage.dynamic_energy_j;
}

double
dynamicEnergyJ(std::uint64_t synaptic_ops)
{
    return static_cast<double>(synaptic_ops) * 30.0 * 2.0e-19;
}

SushiChip::SushiChip(const compiler::ChipConfig &cfg)
    : cfg_(cfg),
      failed_npes_(static_cast<std::size_t>(cfg.n), 0),
      remap_(compiler::planNpeRemap(cfg.n, failed_npes_))
{
    sushi_assert(cfg.n >= 1);
}

void
SushiChip::markNpeFailed(int slot)
{
    sushi_assert(slot >= 0 && slot < cfg_.n);
    failed_npes_[static_cast<std::size_t>(slot)] = 1;
    remap_ = compiler::planNpeRemap(cfg_.n, failed_npes_);
    stats_.failed_npes = static_cast<std::uint64_t>(remap_.failed);
}

void
SushiChip::clearFailedNpes()
{
    std::fill(failed_npes_.begin(), failed_npes_.end(), 0);
    remap_ = compiler::planNpeRemap(cfg_.n, failed_npes_);
    // The gauge must not report slots that are healthy again.
    stats_.failed_npes = 0;
}

void
SushiChip::resetStats()
{
    stats_.reset();
    stats_.failed_npes = static_cast<std::uint64_t>(remap_.failed);
}

void
SushiChip::reset()
{
    clearFailedNpes();
    stats_.reset();
}

PulseVector
SushiChip::stepLayer(const compiler::CompiledLayer &layer,
                     const snn::BinaryLayer &blayer,
                     const PulseVector &act)
{
    const std::size_t in_dim = blayer.inDim();
    const std::size_t out_dim = blayer.outDim();
    sushi_assert(act.size() == in_dim);

    // Activation bitset over scheduled positions, plus the (rare)
    // multi-pulse entries from upstream wrap artefacts.
    std::vector<std::uint64_t> act_bits(snn::packed::laneWords(in_dim),
                                        0);
    std::vector<std::pair<int, std::uint64_t>> extras; // (pos, extra)
    std::uint64_t active_inputs = 0;
    for (std::size_t k = 0; k < in_dim; ++k) {
        const auto idx = static_cast<std::size_t>(
            layer.schedule.order[k]);
        if (act[idx] > 0) {
            act_bits[k / 64] |= std::uint64_t{1} << (k % 64);
            ++active_inputs;
            if (act[idx] > 1)
                extras.emplace_back(static_cast<int>(k),
                                    std::uint64_t{act[idx]} - 1);
        }
    }

    // Input pulses per bucket, shared by every neuron: a bucket's
    // inhibitory count is these minus its excitatory count.
    const auto &buckets = layer.schedule.buckets;
    std::vector<std::uint64_t> bucket_pulses(buckets.size());
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        bucket_pulses[b] = popcountRange(act_bits.data(),
                                         act_bits.data(),
                                         buckets[b].begin,
                                         buckets[b].end);
        for (const auto &[k, extra] : extras)
            if (k >= buckets[b].begin && k < buckets[b].end)
                bucket_pulses[b] += extra;
    }

    PulseVector out(out_dim, 0);
    const bool degraded = remap_.failed > 0;
    const bool fast_kernel = packedKernels();
    const std::uint64_t states = std::uint64_t{1}
                                 << static_cast<unsigned>(
                                        cfg_.sc_per_npe);
    std::uint64_t remapped = 0, underflow = 0, syn_ops = 0, multi = 0;

    for (std::size_t o = 0; o < out_dim; ++o) {
        if (layer.disabled[o])
            continue;
        // Degraded mode: the neuron's home slot is o mod N; if that
        // NPE failed, a healthy host NPE serves it in an extra pass.
        // The counter arithmetic is slot-independent, so results stay
        // bit-identical — only time/reload accounting changes.
        if (degraded &&
            failed_npes_[o % static_cast<std::size_t>(cfg_.n)])
            ++remapped;

        std::uint64_t spikes = 0;
        if (fast_kernel) {
            // Closed-form counter, no Npe object per neuron-step;
            // one popcount per bucket against the sign row.
            const std::uint64_t *sign = layer.signRow(o);
            FastCounter npe{layer.preload[o], states};
            spikes = npe.addUp(
                static_cast<std::uint64_t>(layer.bias_pulses[o]));
            for (std::size_t b = 0; b < buckets.size(); ++b) {
                const compiler::Block &bucket = buckets[b];
                std::uint64_t pos = popcountRange(
                    act_bits.data(), sign, bucket.begin, bucket.end);
                for (const auto &[k, extra] : extras)
                    if (k >= bucket.begin && k < bucket.end &&
                        ((sign[k / 64] >> (k % 64)) & 1))
                        pos += extra;
                const std::uint64_t neg = bucket_pulses[b] - pos;
                // Inhibitory pass first within every bucket
                // (Sec. 5.1).
                if (neg) {
                    const std::uint64_t borrows = npe.addDown(neg);
                    underflow += borrows;
                    spikes += borrows;
                }
                if (pos)
                    spikes += npe.addUp(pos);
                syn_ops += bucket_pulses[b];
            }
        } else {
            // The Npe oracle: a scalar walk of the schedule over the
            // weights, independent of the sign rows above. A fresh
            // counter per neuron-step is behaviourally identical to
            // the time-multiplexed physical NPE (rst + write).
            const auto &w = blayer.weights[o];
            const int *order = layer.schedule.order.data();
            npe::Npe npe(cfg_.sc_per_npe);
            npe.rst();
            npe.write(layer.preload[o]);
            npe.setPolarity(npe::Polarity::Excitatory);
            spikes = npe.addPulses(
                static_cast<std::uint64_t>(layer.bias_pulses[o]));
            for (const compiler::Block &bucket : buckets) {
                std::uint64_t neg = 0, pos = 0;
                for (int k = bucket.begin; k < bucket.end; ++k) {
                    const auto idx = static_cast<std::size_t>(order[k]);
                    (w[idx] < 0 ? neg : pos) += act[idx];
                }
                // Inhibitory pass first within every bucket
                // (Sec. 5.1).
                if (neg) {
                    npe.setPolarity(npe::Polarity::Inhibitory);
                    const std::uint64_t borrows = npe.addPulses(neg);
                    underflow += borrows;
                    spikes += borrows;
                }
                if (pos) {
                    npe.setPolarity(npe::Polarity::Excitatory);
                    spikes += npe.addPulses(pos);
                }
                syn_ops += neg + pos;
            }
        }
        if (spikes > 1)
            ++multi;
        out[o] = static_cast<std::uint16_t>(spikes);
    }
    stats_.remapped_neurons += remapped;
    stats_.underflow_spikes += underflow;
    stats_.synaptic_ops += syn_ops;
    stats_.input_pulses += syn_ops;
    stats_.multi_fires += multi;

    // Reload + timing accounting for this layer-step.
    stats_.reload_events +=
        static_cast<std::uint64_t>(layer.switch_reloads);
    fabric::MeshConfig mesh = fabric::scalingMeshConfig(cfg_.n);
    const double pulse_ps = fabric::pulseTimePs(mesh);
    // Synapses process in parallel across the mesh: the serialised
    // work per step is the per-output-group pulse traffic.
    const double serial_pulses =
        static_cast<double>(active_inputs) *
        static_cast<double>(layer.slices.numOutBlocks());
    // Weight reloading is parallel per synapse (Sec. 4.2.2): the
    // serialised cost is one configuration batch per block
    // transition whose crosspoints actually change — reordering
    // makes many transitions configuration-free.
    const double blocks =
        static_cast<double>(layer.slices.totalBlocks());
    const double change_fraction = std::min(
        1.0, static_cast<double>(layer.switch_reloads) /
                 (blocks * static_cast<double>(cfg_.n) * cfg_.n));
    double reload_ps = blocks * change_fraction * 250.0;
    double degraded_pulses = 0.0;
    if (degraded) {
        // Each output group runs extra_passes more times to serve the
        // remapped neurons: the input slice is re-streamed and the
        // crosspoints are reconfigured to the remapped weights (and
        // back), one configuration batch per extra pass per block.
        const auto extra_group_passes =
            static_cast<std::uint64_t>(layer.slices.numOutBlocks()) *
            static_cast<std::uint64_t>(remap_.extra_passes);
        stats_.degraded_passes += extra_group_passes;
        stats_.failed_npes =
            static_cast<std::uint64_t>(remap_.failed);
        degraded_pulses =
            static_cast<double>(active_inputs) *
            static_cast<double>(extra_group_passes);
        reload_ps += blocks *
                     static_cast<double>(remap_.extra_passes) * 250.0;
        stats_.reload_events += extra_group_passes;
    }
    stats_.reload_time_ps += reload_ps;
    stats_.est_time_ps +=
        (serial_pulses + degraded_pulses) * pulse_ps + reload_ps;
    return out;
}

PulseVector
SushiChip::stepNetwork(const compiler::CompiledNetwork &net,
                       const PulseVector &input)
{
    sushi_assert(net.net != nullptr);
    sushi_assert(net.layers.size() == net.net->layers().size());
    ++stats_.time_steps;
    // Refresh the compile-plan gauges from the compiler's cached
    // diagnostics (O(1): computed once at compile time).
    stats_.disabled_neurons =
        std::max(stats_.disabled_neurons,
                 static_cast<std::uint64_t>(net.disabled_count));
    stats_.plan_reloads =
        std::max(stats_.plan_reloads,
                 static_cast<std::uint64_t>(net.plan_reloads));
    stats_.jj_utilisation = std::max(stats_.jj_utilisation,
                                     net.budget.jjUtilisation());
    stats_.area_utilisation = std::max(
        stats_.area_utilisation, net.budget.areaUtilisation());
    PulseVector act = input;
    for (std::size_t l = 0; l < net.layers.size(); ++l)
        act = stepLayer(net.layers[l], net.net->layers()[l], act);
    return act;
}

void
SushiChip::countOutputSpikes(const PulseVector &act)
{
    for (const auto pulses : act)
        stats_.output_spikes += static_cast<std::uint64_t>(pulses);
}

void
SushiChip::finishRun()
{
    stats_.dynamic_energy_j = dynamicEnergyJ(stats_.synaptic_ops);
}

std::vector<int>
SushiChip::inferCounts(
    const compiler::CompiledNetwork &net,
    const std::vector<std::vector<std::uint8_t>> &frames)
{
    sushi_assert(net.net != nullptr);
    sushi_assert(net.layers.size() == net.net->layers().size());
    const std::size_t out_dim = net.net->layers().back().outDim();
    std::vector<int> counts(out_dim, 0);
    beginFrame();
    for (const auto &frame : frames) {
        const PulseVector act =
            stepNetwork(net, PulseVector(frame.begin(), frame.end()));
        for (std::size_t o = 0; o < out_dim; ++o)
            counts[o] += act[o];
        countOutputSpikes(act);
    }
    finishRun();
    return counts;
}

int
SushiChip::predict(const compiler::CompiledNetwork &net,
                   const std::vector<std::vector<std::uint8_t>> &frames)
{
    const auto counts = inferCounts(net, frames);
    int best = 0;
    for (std::size_t c = 1; c < counts.size(); ++c)
        if (counts[c] > counts[static_cast<std::size_t>(best)])
            best = static_cast<int>(c);
    return best;
}

} // namespace sushi::chip
