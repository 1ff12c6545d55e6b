#include "chip/sushi_chip.hh"

#ifdef SUSHI_X86_KERNELS
#include <immintrin.h>
#endif

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.hh"
#include "fabric/resource_model.hh"
#include "fabric/timing_model.hh"
#include "sfq/cell_params.hh"

namespace sushi::chip {

namespace {

using kernel::Extras;
using kernel::LayerCounts;
using kernel::Scratch;

/** Set bit position[j] of @p bits for every set bit j of @p live. */
[[gnu::always_inline]] inline void
scatterLive(const int *position, std::uint64_t live, std::uint64_t *bits)
{
    for (; live != 0; live &= live - 1) {
        const int k = position[std::countr_zero(live)];
        bits[static_cast<std::size_t>(k >> 6)] |= std::uint64_t{1}
                                                  << (k & 63);
    }
}

/** List the multi-pulse inputs of @p act in scheduled order. */
void
listExtras(const compiler::CompiledLayer &layer,
           const std::uint16_t *act, Extras &extras)
{
    const int *order = layer.schedule.order.data();
    const std::size_t in_dim = layer.schedule.order.size();
    for (std::size_t k = 0; k < in_dim; ++k) {
        const std::uint16_t v = act[static_cast<std::size_t>(order[k])];
        if (v > 1)
            extras.emplace_back(static_cast<int>(k), v - 1);
    }
}

/**
 * Scatter @p act (original input order) into s.act_bits over
 * scheduled positions, 64 inputs at a time; list the multi-pulse
 * inputs in s.extras, in scheduled order, when any exist.
 */
[[gnu::always_inline]] inline void
packScalar(const compiler::CompiledLayer &layer,
           const std::uint16_t *act, Scratch &s)
{
    const std::size_t in_dim = layer.position.size();
    s.act_bits.assign(layer.signWords(), 0);
    std::uint16_t any = 0;
    for (std::size_t base = 0; base < in_dim; base += 64) {
        const std::size_t lanes = std::min<std::size_t>(64, in_dim - base);
        std::uint64_t live = 0;
        for (std::size_t j = 0; j < lanes; ++j) {
            live |= std::uint64_t{act[base + j] != 0} << j;
            any |= act[base + j];
        }
        scatterLive(layer.position.data() + base, live,
                    s.act_bits.data());
    }
    s.extras.clear();
    if (any > 1)
        listExtras(layer, act, s.extras);
}

/** Popcount of a & s over one bucket's word span. */
[[gnu::always_inline]] inline std::uint64_t
spanCount(const std::uint64_t *a, const std::uint64_t *s,
          const compiler::BucketSpan &span)
{
    std::uint64_t n = static_cast<std::uint64_t>(
        __builtin_popcountll(a[span.first_word] & s[span.first_word] &
                             span.head_mask) +
        __builtin_popcountll(a[span.last_word] & s[span.last_word] &
                             span.tail_mask));
    for (std::uint32_t w = span.first_word + 1; w < span.last_word; ++w)
        n += static_cast<std::uint64_t>(__builtin_popcountll(a[w] & s[w]));
    return n;
}

/**
 * The scalar kernel: pack, per-bucket input pulses, then every
 * enabled neuron against its sign row. The K-SC counter is tracked
 * as an unbounded membrane w whose value is w mod 2^K: each
 * inhibitory pass borrows once per multiple of 2^K that w crosses
 * downwards, each excitatory pass carries once per multiple crossed
 * upwards. Since preload < 2^K, q = floor(w / 2^K) starts at the
 * bias carries, and the carries total q_end - q_start + borrows.
 */
[[gnu::always_inline]] inline LayerCounts
stepScalar(const compiler::CompiledLayer &layer, const std::uint16_t *act,
           int k_bits, Scratch &s, std::uint16_t *out)
{
    packScalar(layer, act, s);
    LayerCounts c;
    const std::uint64_t *bits = s.act_bits.data();
    const compiler::BucketSpan *spans = layer.bucket_spans.data();
    const compiler::Block *buckets = layer.schedule.buckets.data();
    const std::size_t n_buckets = layer.bucket_spans.size();
    const Extras &extras = s.extras;
    const std::size_t n_extras = extras.size();
    s.bucket_pulses.resize(n_buckets);
    std::uint64_t *bucket_pulses = s.bucket_pulses.data();

    std::uint64_t pulses = 0;
    for (std::size_t b = 0, e = 0; b < n_buckets; ++b) {
        bucket_pulses[b] = spanCount(bits, bits, spans[b]);
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
                static_cast<std::int64_t>(spanCount(bits, sign, spans[b]));
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

LayerCounts
stepDefault(const compiler::CompiledLayer &layer, const std::uint16_t *act,
            int k_bits, Scratch &s, std::uint16_t *out)
{
    return stepScalar(layer, act, k_bits, s, out);
}

#ifdef SUSHI_X86_KERNELS

SUSHI_TARGET_POPCNT LayerCounts
stepPopcnt(const compiler::CompiledLayer &layer, const std::uint16_t *act,
           int k_bits, Scratch &s, std::uint16_t *out)
{
    return stepScalar(layer, act, k_bits, s, out);
}

// GCC 12's AVX-512 headers seed unmasked intrinsics with a
// self-initialised "undefined" vector, which -Wmaybe-uninitialized
// reports at every inlined use.
#if !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/**
 * The scheduled bitset from 32-lane nonzero tests on the 16-bit
 * pulse counts; an OR over the counts shows whether any exceeds 1.
 */
SUSHI_TARGET_AVX512 [[gnu::always_inline]] inline void
packAvx512(const compiler::CompiledLayer &layer, const std::uint16_t *act,
           Scratch &s)
{
    const std::size_t in_dim = layer.position.size();
    s.act_bits.assign(layer.signWords(), 0);
    __m512i any = _mm512_setzero_si512();
    for (std::size_t base = 0; base < in_dim; base += 64) {
        const std::size_t lanes = std::min<std::size_t>(64, in_dim - base);
        const std::size_t lo = std::min<std::size_t>(32, lanes);
        const __m512i v0 = _mm512_maskz_loadu_epi16(
            static_cast<__mmask32>(~std::uint64_t{0} >> (64 - lo)),
            act + base);
        const __m512i v1 = _mm512_maskz_loadu_epi16(
            static_cast<__mmask32>(
                lanes > 32 ? ~std::uint64_t{0} >> (96 - lanes) : 0),
            act + base + lo);
        any = _mm512_or_si512(any, _mm512_or_si512(v0, v1));
        const std::uint64_t live =
            _mm512_test_epi16_mask(v0, v0) |
            std::uint64_t{_mm512_test_epi16_mask(v1, v1)} << 32;
        scatterLive(layer.position.data() + base, live,
                    s.act_bits.data());
    }
    s.extras.clear();
    if (_mm512_cmpgt_epu16_mask(any, _mm512_set1_epi16(1)) != 0)
        listExtras(layer, act, s.extras);
}

/** Eight accumulators in, their eight horizontal sums out (lane j
 *  = sum of a[j]): a transpose-add of 21 instructions. */
SUSHI_TARGET_AVX512 [[gnu::always_inline]] inline __m512i
sum8(const __m512i *a)
{
    // Per 128-bit lane: (partial of a[2i], partial of a[2i+1]).
    const __m512i t01 = _mm512_add_epi64(_mm512_unpacklo_epi64(a[0], a[1]),
                                         _mm512_unpackhi_epi64(a[0], a[1]));
    const __m512i t23 = _mm512_add_epi64(_mm512_unpacklo_epi64(a[2], a[3]),
                                         _mm512_unpackhi_epi64(a[2], a[3]));
    const __m512i t45 = _mm512_add_epi64(_mm512_unpacklo_epi64(a[4], a[5]),
                                         _mm512_unpackhi_epi64(a[4], a[5]));
    const __m512i t67 = _mm512_add_epi64(_mm512_unpacklo_epi64(a[6], a[7]),
                                         _mm512_unpackhi_epi64(a[6], a[7]));
    // Fold 128-bit lanes pairwise, twice.
    const __m512i u03 =
        _mm512_add_epi64(_mm512_shuffle_i64x2(t01, t23, 0x88),
                         _mm512_shuffle_i64x2(t01, t23, 0xDD));
    const __m512i u47 =
        _mm512_add_epi64(_mm512_shuffle_i64x2(t45, t67, 0x88),
                         _mm512_shuffle_i64x2(t45, t67, 0xDD));
    return _mm512_add_epi64(_mm512_shuffle_i64x2(u03, u47, 0x88),
                            _mm512_shuffle_i64x2(u03, u47, 0xDD));
}

/**
 * The vector kernel: the scalar kernel's arithmetic for eight
 * neurons at a time, in int64 lanes. Each bucket's masked
 * activation span is built once per step; per group and bucket one
 * vpopcntq accumulator per neuron runs over the span in chunks of
 * up to eight words, and sum8 reduces the eight at once. Lanes past
 * out_dim read the group's last row and are masked off with the
 * disabled neurons.
 */
SUSHI_TARGET_AVX512 LayerCounts
stepAvx512(const compiler::CompiledLayer &layer, const std::uint16_t *act,
           int k_bits, Scratch &s, std::uint16_t *out)
{
    packAvx512(layer, act, s);
    LayerCounts c;
    const std::uint64_t *bits = s.act_bits.data();
    const compiler::BucketSpan *spans = layer.bucket_spans.data();
    const compiler::Block *buckets = layer.schedule.buckets.data();
    const std::size_t n_buckets = layer.bucket_spans.size();
    const Extras &extras = s.extras;
    const std::size_t n_extras = extras.size();
    s.bucket_pulses.resize(n_buckets);
    std::uint64_t *bucket_pulses = s.bucket_pulses.data();

    s.bucket_acts.clear();
    std::uint64_t pulses = 0;
    for (std::size_t b = 0, e = 0; b < n_buckets; ++b) {
        const compiler::BucketSpan &span = spans[b];
        std::uint64_t n = 0;
        for (std::uint32_t w = span.first_word; w <= span.last_word;
             ++w) {
            const std::uint64_t mask = w == span.first_word ? span.head_mask
                                       : w == span.last_word
                                           ? span.tail_mask
                                           : ~std::uint64_t{0};
            s.bucket_acts.push_back(bits[w] & mask);
            n += static_cast<std::uint64_t>(
                __builtin_popcountll(bits[w] & mask));
        }
        c.active_inputs += n;
        for (; e < n_extras && extras[e].first < buckets[b].end; ++e)
            n += extras[e].second;
        bucket_pulses[b] = n;
        pulses += n;
    }

    const std::size_t out_dim = layer.disabled.size();
    const __m128i k = _mm_cvtsi32_si128(k_bits);
    const __m512i one = _mm512_set1_epi64(1);
    for (std::size_t o0 = 0; o0 < out_dim; o0 += 8) {
        const std::size_t lanes = std::min<std::size_t>(8, out_dim - o0);
        const auto in_range = static_cast<__mmask8>((1u << lanes) - 1);
        const __m128i off =
            _mm_maskz_loadu_epi8(in_range, layer.disabled.data() + o0);
        const auto live = static_cast<__mmask8>(
            in_range & ~_mm_test_epi8_mask(off, off));
        if (live == 0)
            continue;
        const std::uint64_t *rows[8];
        for (std::size_t j = 0; j < 8; ++j)
            rows[j] = layer.signRow(o0 + std::min(j, lanes - 1));

        __m512i w = _mm512_add_epi64(
            _mm512_maskz_loadu_epi64(in_range, layer.preload.data() + o0),
            _mm512_cvtepi32_epi64(_mm256_maskz_loadu_epi32(
                in_range, layer.bias_pulses.data() + o0)));
        __m512i q = _mm512_sra_epi64(w, k);
        __m512i borrows = _mm512_setzero_si512();
        const std::uint64_t *acts = s.bucket_acts.data();
        for (std::size_t b = 0, e = 0; b < n_buckets; ++b) {
            const std::uint32_t first = spans[b].first_word;
            const std::uint32_t n_words = spans[b].last_word - first + 1;
            __m512i acc[8];
#pragma GCC unroll 8
            for (std::size_t j = 0; j < 8; ++j)
                acc[j] = _mm512_setzero_si512();
            for (std::uint32_t x = 0; x < n_words; x += 8) {
                const auto m = static_cast<__mmask8>(
                    n_words - x >= 8 ? 0xFF : (1u << (n_words - x)) - 1);
                const __m512i a = _mm512_maskz_loadu_epi64(m, acts + x);
#pragma GCC unroll 8
                for (std::size_t j = 0; j < 8; ++j)
                    acc[j] = _mm512_add_epi64(
                        acc[j],
                        _mm512_popcnt_epi64(_mm512_and_si512(
                            _mm512_maskz_loadu_epi64(m, rows[j] + first + x),
                            a)));
            }
            __m512i pos = sum8(acc);
            for (; e < n_extras && extras[e].first < buckets[b].end;
                 ++e) {
                const int bit = extras[e].first;
                unsigned has = 0;
                for (std::size_t j = 0; j < 8; ++j)
                    has |= static_cast<unsigned>(
                               (rows[j][bit >> 6] >> (bit & 63)) & 1)
                           << j;
                pos = _mm512_mask_add_epi64(
                    pos, static_cast<__mmask8>(has), pos,
                    _mm512_set1_epi64(
                        static_cast<long long>(extras[e].second)));
            }
            // Inhibitory pass first within every bucket (Sec. 5.1).
            w = _mm512_sub_epi64(
                w, _mm512_sub_epi64(
                       _mm512_set1_epi64(
                           static_cast<long long>(bucket_pulses[b])),
                       pos));
            borrows = _mm512_add_epi64(
                borrows, _mm512_sub_epi64(q, _mm512_sra_epi64(w, k)));
            w = _mm512_add_epi64(w, pos);
            q = _mm512_sra_epi64(w, k);
            acts += n_words;
        }
        const __m512i spikes =
            _mm512_add_epi64(q, _mm512_add_epi64(borrows, borrows));
        _mm512_mask_cvtepi64_storeu_epi16(out + o0, live, spikes);
        c.syn_ops += pulses * static_cast<std::uint64_t>(
                                  __builtin_popcount(live));
        c.underflow += static_cast<std::uint64_t>(
            _mm512_mask_reduce_add_epi64(live, borrows));
        c.multi += static_cast<std::uint64_t>(__builtin_popcount(
            _mm512_mask_cmpgt_epu64_mask(live, spikes, one)));
    }
    return c;
}

#if !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif // SUSHI_X86_KERNELS

constexpr kernel::Variant kVariants[] = {
    {"default", Isa::Default, stepDefault},
#ifdef SUSHI_X86_KERNELS
    {"popcnt", Isa::Popcnt, stepPopcnt},
    {"avx512", Isa::Avx512, stepAvx512},
#endif
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

std::span<const kernel::Variant>
kernel::variants()
{
    return kVariants;
}

const kernel::Variant &
kernel::selected()
{
    static const Variant *const best = [] {
        const Variant *v = &kVariants[0];
        for (const Variant &c : kVariants)
            if (c.isa <= hostIsa())
                v = &c;
        return v;
    }();
    return *best;
}

void
kernel::pin(SushiChip &chip, const Variant &v)
{
    sushi_assert(v.isa <= hostIsa());
    chip.kernel_ = &v;
}

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
    // accumulate, except that every stage saw the same frames and
    // the per-chip plan diagnostics add up across the plan's chips.
    // Stages run sequentially within a time step, so latency adds as
    // accumulate adds it (same operands, same order).
    const std::uint64_t merged_frames = std::max(frames, stage.frames);
    const std::uint64_t merged_steps =
        std::max(time_steps, stage.time_steps);
    const std::uint64_t merged_disabled =
        disabled_neurons + stage.disabled_neurons;
    const std::uint64_t merged_reloads =
        plan_reloads + stage.plan_reloads;
    accumulate(stage);
    frames = merged_frames;
    time_steps = merged_steps;
    disabled_neurons = merged_disabled;
    plan_reloads = merged_reloads;
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
      pulse_ps_(fabric::pulseTimePs(fabric::scalingMeshConfig(cfg.n))),
      kernel_(&kernel::selected())
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
        // Pack the activations once, then count every neuron's
        // buckets against its sign row with crossing-count counter
        // arithmetic, with no Npe object per neuron-step.
        const kernel::LayerCounts c = kernel_->step(
            layer, act.data(), cfg_.sc_per_npe, scratch_, out.data());
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
