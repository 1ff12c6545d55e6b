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

// The neuron loop is built twice from one source: with the POPCNT
// instruction and without. The loader binds the right clone once per
// process; a bare build has no hardware popcount, so std::popcount
// would otherwise be a library call per word. ThreadSanitizer builds
// keep one plain copy: the clone resolver runs before the TSan
// runtime is up and crashes the process at load.
#if defined(__SANITIZE_THREAD__)
#define SUSHI_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SUSHI_TSAN 1
#endif
#endif
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(SUSHI_TSAN)
#define SUSHI_POPCNT_CLONES \
    __attribute__((target_clones("popcnt", "default")))
#else
#define SUSHI_POPCNT_CLONES
#endif

/** Multi-pulse inputs: (scheduled position, pulses beyond the first). */
using Extras = std::vector<std::pair<int, std::uint64_t>>;

/**
 * Scatter @p act (original input order) into @p bits over scheduled
 * positions, 64 inputs at a time; list the multi-pulse inputs in
 * @p extras, in scheduled order, when any exist.
 */
void
packActivations(const compiler::CompiledLayer &layer,
                const PulseVector &act, std::vector<std::uint64_t> &bits,
                Extras &extras)
{
    const std::size_t in_dim = act.size();
    const int *position = layer.position.data();
    bits.assign(layer.signWords(), 0);
    std::uint16_t any = 0;
    for (std::size_t base = 0; base < in_dim; base += 64) {
        const std::size_t lanes = std::min<std::size_t>(64, in_dim - base);
        std::uint64_t live = 0;
        for (std::size_t j = 0; j < lanes; ++j) {
            live |= std::uint64_t{act[base + j] != 0} << j;
            any |= act[base + j];
        }
        for (; live != 0; live &= live - 1) {
            const int k = position[base + static_cast<std::size_t>(
                                              std::countr_zero(live))];
            bits[static_cast<std::size_t>(k >> 6)] |= std::uint64_t{1}
                                                      << (k & 63);
        }
    }
    extras.clear();
    if (any > 1) {
        const int *order = layer.schedule.order.data();
        for (std::size_t k = 0; k < in_dim; ++k) {
            const std::uint16_t v =
                act[static_cast<std::size_t>(order[k])];
            if (v > 1)
                extras.emplace_back(static_cast<int>(k), v - 1);
        }
    }
}

/** Popcount of a & s over one bucket's word span. */
inline std::uint64_t
spanCount(const std::uint64_t *a, const std::uint64_t *s,
          const compiler::BucketSpan &span)
{
    std::uint64_t n = static_cast<std::uint64_t>(
        std::popcount(a[span.first_word] & s[span.first_word] &
                      span.head_mask) +
        std::popcount(a[span.last_word] & s[span.last_word] &
                      span.tail_mask));
    for (std::uint32_t w = span.first_word + 1; w < span.last_word; ++w)
        n += static_cast<std::uint64_t>(std::popcount(a[w] & s[w]));
    return n;
}

/** Tallies of one fast-kernel layer step. */
struct LayerCounts
{
    std::uint64_t active_inputs = 0;
    std::uint64_t syn_ops = 0;
    std::uint64_t underflow = 0;
    std::uint64_t multi = 0;
};

/**
 * The fast kernel's counting: per-bucket input pulses, then every
 * enabled neuron against its sign row. The K-SC counter is tracked
 * as an unbounded membrane w whose value is w mod 2^K: each
 * inhibitory pass borrows once per multiple of 2^K that w crosses
 * downwards, each excitatory pass carries once per multiple crossed
 * upwards. Since preload < 2^K, q = floor(w / 2^K) starts at the
 * bias carries, and the carries total q_end - q_start + borrows.
 */
SUSHI_POPCNT_CLONES LayerCounts
countLayer(const compiler::CompiledLayer &layer, const std::uint64_t *act,
           std::uint64_t *bucket_pulses, const Extras &extras, int k_bits,
           std::uint16_t *out)
{
    LayerCounts c;
    const compiler::BucketSpan *spans = layer.bucket_spans.data();
    const compiler::Block *buckets = layer.schedule.buckets.data();
    const std::size_t n_buckets = layer.bucket_spans.size();
    const std::size_t n_extras = extras.size();

    std::uint64_t pulses = 0;
    for (std::size_t b = 0, e = 0; b < n_buckets; ++b) {
        bucket_pulses[b] = spanCount(act, act, spans[b]);
        c.active_inputs += bucket_pulses[b];
        for (; e < n_extras && extras[e].first < buckets[b].end; ++e)
            bucket_pulses[b] += extras[e].second;
        pulses += bucket_pulses[b];
    }

    const std::size_t out_dim = layer.disabled.size();
    for (std::size_t o = 0; o < out_dim; ++o) {
        if (layer.disabled[o])
            continue;
        const std::uint64_t *sign = layer.signRow(o);
        std::int64_t w = static_cast<std::int64_t>(layer.preload[o]) +
                         layer.bias_pulses[o];
        std::int64_t q = w >> k_bits;
        std::int64_t borrows = 0;
        for (std::size_t b = 0, e = 0; b < n_buckets; ++b) {
            auto pos =
                static_cast<std::int64_t>(spanCount(act, sign, spans[b]));
            for (; e < n_extras && extras[e].first < buckets[b].end;
                 ++e) {
                const int k = extras[e].first;
                pos += static_cast<std::int64_t>(
                    ((sign[k >> 6] >> (k & 63)) & 1) * extras[e].second);
            }
            // Inhibitory pass first within every bucket (Sec. 5.1).
            w -= static_cast<std::int64_t>(bucket_pulses[b]) - pos;
            const std::int64_t q_low = w >> k_bits;
            borrows += q - q_low;
            w += pos;
            q = w >> k_bits;
        }
        const auto spikes = static_cast<std::uint64_t>(q + 2 * borrows);
        c.syn_ops += pulses;
        c.underflow += static_cast<std::uint64_t>(borrows);
        c.multi += spikes > 1;
        out[o] = static_cast<std::uint16_t>(spikes);
    }
    return c;
}

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
      remap_(compiler::planNpeRemap(cfg.n, failed_npes_)),
      pulse_ps_(fabric::pulseTimePs(fabric::scalingMeshConfig(cfg.n)))
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
    sushi_assert(layer.slices.width == cfg_.n);

    PulseVector out(out_dim, 0);
    const bool degraded = remap_.failed > 0;
    std::uint64_t remapped = 0, underflow = 0, syn_ops = 0, multi = 0;
    std::uint64_t active_inputs = 0;

    // Degraded mode: the neuron's home slot is o mod N; if that NPE
    // failed, a healthy host NPE serves it in an extra pass. The
    // counter arithmetic is slot-independent, so results stay
    // bit-identical — only time/reload accounting changes.
    if (degraded) {
        const auto n = static_cast<std::size_t>(cfg_.n);
        for (std::size_t slot = 0; slot < n; ++slot)
            if (failed_npes_[slot])
                for (std::size_t o = slot; o < out_dim; o += n)
                    remapped += layer.disabled[o] ? 0 : 1;
    }

    if (packedKernels()) {
        // Pack the activations once, then one popcount per (neuron,
        // bucket) against the sign row and crossing-count counter
        // arithmetic, with no Npe object per neuron-step.
        packActivations(layer, act, act_bits_, extras_);
        bucket_pulses_.resize(layer.bucket_spans.size());
        const LayerCounts c =
            countLayer(layer, act_bits_.data(), bucket_pulses_.data(),
                       extras_, cfg_.sc_per_npe, out.data());
        active_inputs = c.active_inputs;
        syn_ops = c.syn_ops;
        underflow = c.underflow;
        multi = c.multi;
    } else {
        const auto &buckets = layer.schedule.buckets;
        for (const auto pulses : act)
            active_inputs += pulses > 0 ? 1 : 0;
        for (std::size_t o = 0; o < out_dim; ++o) {
            if (layer.disabled[o])
                continue;
            // The Npe oracle: a scalar walk of the schedule over the
            // weights, independent of the fast path's sign rows. A fresh
            // counter per neuron-step is behaviourally identical to
            // the time-multiplexed physical NPE (rst + write).
            const auto &w = blayer.weights[o];
            const int *order = layer.schedule.order.data();
            npe::Npe npe(cfg_.sc_per_npe);
            npe.rst();
            npe.write(layer.preload[o]);
            npe.setPolarity(npe::Polarity::Excitatory);
            std::uint64_t spikes = npe.addPulses(
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
            if (spikes > 1)
                ++multi;
            out[o] = static_cast<std::uint16_t>(spikes);
        }
    }
    stats_.remapped_neurons += remapped;
    stats_.underflow_spikes += underflow;
    stats_.synaptic_ops += syn_ops;
    stats_.input_pulses += syn_ops;
    stats_.multi_fires += multi;

    // Reload + timing accounting for this layer-step.
    stats_.reload_events +=
        static_cast<std::uint64_t>(layer.switch_reloads);
    // Synapses process in parallel across the mesh: the serialised
    // work per step is the per-output-group pulse traffic.
    const double serial_pulses =
        static_cast<double>(active_inputs) *
        static_cast<double>(layer.slices.numOutBlocks());
    double reload_ps = layer.reload_ps;
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
        reload_ps += static_cast<double>(layer.slices.totalBlocks()) *
                     static_cast<double>(remap_.extra_passes) * 250.0;
        stats_.reload_events += extra_group_passes;
    }
    stats_.reload_time_ps += reload_ps;
    stats_.est_time_ps +=
        (serial_pulses + degraded_pulses) * pulse_ps_ + reload_ps;
    return out;
}

PulseVector
SushiChip::stepNetwork(const compiler::CompiledNetwork &net,
                       PulseVector act)
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
