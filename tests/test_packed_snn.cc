/**
 * @file
 * Differential-fuzzing parity harness for the binarized kernels:
 *
 *  - the trainer's packed +-alpha forward (snn/packed) vs its
 *    scalar-oracle backend and an independent reference taken
 *    straight off the signs, over hundreds of seeded random shapes
 *    (ragged in_dim % 64 in {0, 1, 63}, batch = 1, varying thread
 *    counts and activation densities) — bit-identical floats;
 *  - BinarySnn::stepForward, the scalar reference, on hand-built
 *    layers with zero weights;
 *  - SushiChip crossing-count counter vs the Npe-object oracle, for
 *    every fast-kernel build the CPU runs, including wrap-around
 *    borrows (tiny counters), multi-pulse extras, buckets straddling
 *    64-bit sign-row words, partial and mixed disabled/live groups
 *    of eight neurons, and degraded-mode remaps;
 *  - InferenceEngine merged stats vs per-sample oracle chips merged
 *    in sample order — byte-identical stats JSON;
 *  - binarize deterministic-rounding fixes (sign of zero, NaN,
 *    denormal alpha, astronomically large raw thresholds).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "chip/kernel.hh"
#include "chip/sushi_chip.hh"
#include "common/cpu.hh"
#include "common/rng.hh"
#include "compiler/compile.hh"
#include "engine/inference_engine.hh"
#include "snn/binarize.hh"
#include "snn/network.hh"
#include "snn/packed.hh"
#include "snn/train.hh"

namespace sushi {
namespace {

using snn::packed::Backend;
using snn::packed::PackedActivations;
using snn::packed::PackedLayer;

snn::BinarySnn
tinyNet(std::size_t input, std::size_t hidden, std::size_t output,
        int t_steps, std::uint64_t seed)
{
    snn::SnnConfig cfg;
    cfg.input = input;
    cfg.hidden = hidden;
    cfg.output = output;
    cfg.t_steps = t_steps;
    cfg.stateless = true;
    snn::SnnMlp mlp(cfg, seed);
    return snn::BinarySnn::fromFloat(mlp);
}

std::vector<std::vector<std::uint8_t>>
randomFrames(std::size_t dim, int t_steps, double density,
             std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<std::uint8_t>> frames;
    for (int t = 0; t < t_steps; ++t) {
        std::vector<std::uint8_t> f(dim);
        for (auto &b : f)
            b = rng.chance(density) ? 1 : 0;
        frames.push_back(std::move(f));
    }
    return frames;
}

/** in_dim sampler forcing every lane-tail class the kernels handle:
 *  exact multiples of 64 plus the 1-past and 1-short ragged tails. */
std::size_t
sampleInDim(int c, Rng &rng)
{
    switch (c % 4) {
    case 0:
        return 64 * (1 + rng.below(3)); // % 64 == 0
    case 1:
        return 64 * rng.below(3) + 1; // % 64 == 1
    case 2:
        return 64 * rng.below(3) + 63; // % 64 == 63
    default:
        return 1 + rng.below(200);
    }
}

TEST(PackedFuzz, EffectiveForwardDifferential)
{
    const int kThreads[] = {0, 1, 2, 8};
    for (int c = 0; c < 240; ++c) {
        Rng rng(5000 + static_cast<std::uint64_t>(c));
        const std::size_t in_dim = sampleInDim(c, rng);
        const std::size_t out_dim = 1 + rng.below(24);
        const std::size_t batch = c % 5 == 0 ? 1 : 1 + rng.below(5);
        const int threads = kThreads[rng.below(4)];

        snn::Tensor w(out_dim, in_dim);
        std::vector<float> bias(out_dim);
        for (std::size_t o = 0; o < out_dim; ++o) {
            const float alpha =
                static_cast<float>(rng.uniform(0.01, 4.0));
            float *row = w.row(o);
            for (std::size_t i = 0; i < in_dim; ++i)
                row[i] = rng.chance(0.5) ? alpha : -alpha;
            bias[o] = static_cast<float>(rng.uniform(-2.0, 2.0));
        }
        const PackedLayer layer = PackedLayer::fromEffective(w, bias);
        ASSERT_TRUE(layer.packable()) << "case " << c;

        const double density = rng.uniform();
        snn::Tensor x(batch, in_dim);
        for (std::size_t i = 0; i < x.size(); ++i)
            x.data()[i] = rng.chance(density) ? 1.0f : 0.0f;
        PackedActivations px;
        ASSERT_TRUE(snn::packed::packFloatRows(x, px));

        snn::Tensor fast(batch, out_dim), oracle(batch, out_dim);
        snn::packed::effectiveForward(layer, px, fast,
                                      Backend::Packed, threads);
        snn::packed::effectiveForward(layer, px, oracle,
                                      Backend::Scalar, 1);
        ASSERT_EQ(std::memcmp(fast.data(), oracle.data(),
                              fast.size() * sizeof(float)),
                  0)
            << "case " << c;

        // Independent plain-int reference, straight off the +-1
        // signs — catches a bug shared by both kernel backends.
        for (std::size_t b = 0; b < batch; ++b) {
            for (std::size_t o = 0; o < out_dim; ++o) {
                int dot = 0;
                for (std::size_t i = 0; i < in_dim; ++i)
                    if (x.at(b, i) != 0.0f)
                        dot += w.at(o, i) > 0.0f ? 1 : -1;
                const float want =
                    bias[o] + layer.alpha()[o] * static_cast<float>(dot);
                const float got = fast.at(b, o);
                ASSERT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
                    << "case " << c << " b " << b << " o " << o;
            }
        }
    }
}

TEST(PackedLayer, RejectsNonBinaryInputs)
{
    // Non-uniform magnitude within a row is not packable.
    snn::Tensor e(1, 3);
    e.at(0, 0) = 0.5f;
    e.at(0, 1) = -0.5f;
    e.at(0, 2) = 0.25f;
    EXPECT_FALSE(
        PackedLayer::fromEffective(e, {0.0f}).packable());

    // All-zero and NaN rows are not packable.
    snn::Tensor z(1, 3);
    EXPECT_FALSE(PackedLayer::fromEffective(z, {0.0f}).packable());
    snn::Tensor n(1, 3);
    n.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
    EXPECT_FALSE(PackedLayer::fromEffective(n, {0.0f}).packable());

    // Non-spike float activations refuse to pack.
    snn::Tensor x(1, 3);
    x.at(0, 1) = 0.5f;
    PackedActivations px;
    EXPECT_FALSE(snn::packed::packFloatRows(x, px));
}

TEST(BinarySnnParity, ZeroWeightKeepsScalarPath)
{
    // Hand-built layer with a zero weight: stepForward, the scalar
    // reference, fires exactly where the integer membrane reaches the
    // threshold, so the zero weight contributes nothing.
    snn::BinaryLayer layer;
    layer.weights = {{1, 0, -1, 1}, {-1, -1, 1, 1}};
    layer.thresholds = {1, 0};
    auto net = snn::BinarySnn::fromLayers({layer}, 2);

    const auto frames = randomFrames(4, 8, 0.6, 77);
    std::vector<int> want_counts(2, 0);
    for (const auto &frame : frames) {
        std::vector<std::uint8_t> want(2);
        for (std::size_t o = 0; o < 2; ++o) {
            want[o] = snn::BinarySnn::membrane(layer, o, frame) >=
                              layer.thresholds[o]
                          ? 1
                          : 0;
            want_counts[o] += want[o];
        }
        EXPECT_EQ(net.stepForward(frame), want);
    }
    EXPECT_EQ(net.forwardCounts(frames), want_counts);

    // Only the zero-weight input active: neuron 0's membrane stays
    // 0, below its threshold of 1 (a +1 there would fire it).
    const std::vector<std::uint8_t> only_zero = {0, 1, 0, 0};
    EXPECT_EQ(snn::BinarySnn::membrane(layer, 0, only_zero), 0);
    EXPECT_EQ(net.stepForward(only_zero)[0], 0);
}

void
expectStatsEq(const chip::InferenceStats &a,
              const chip::InferenceStats &b, int trial)
{
    EXPECT_EQ(a.frames, b.frames) << "trial " << trial;
    EXPECT_EQ(a.time_steps, b.time_steps) << "trial " << trial;
    EXPECT_EQ(a.input_pulses, b.input_pulses) << "trial " << trial;
    EXPECT_EQ(a.synaptic_ops, b.synaptic_ops) << "trial " << trial;
    EXPECT_EQ(a.output_spikes, b.output_spikes) << "trial " << trial;
    EXPECT_EQ(a.underflow_spikes, b.underflow_spikes)
        << "trial " << trial;
    EXPECT_EQ(a.multi_fires, b.multi_fires) << "trial " << trial;
    EXPECT_EQ(a.reload_events, b.reload_events) << "trial " << trial;
    EXPECT_EQ(a.failed_npes, b.failed_npes) << "trial " << trial;
    EXPECT_EQ(a.remapped_neurons, b.remapped_neurons)
        << "trial " << trial;
    EXPECT_EQ(a.degraded_passes, b.degraded_passes)
        << "trial " << trial;
    EXPECT_EQ(a.disabled_neurons, b.disabled_neurons)
        << "trial " << trial;
    EXPECT_EQ(a.plan_reloads, b.plan_reloads) << "trial " << trial;
    EXPECT_EQ(a.jj_utilisation, b.jj_utilisation) << "trial " << trial;
    EXPECT_EQ(a.area_utilisation, b.area_utilisation)
        << "trial " << trial;
    EXPECT_EQ(a.noc_packets, b.noc_packets) << "trial " << trial;
    EXPECT_EQ(a.noc_flits, b.noc_flits) << "trial " << trial;
    EXPECT_EQ(a.noc_flit_hops, b.noc_flit_hops) << "trial " << trial;
    EXPECT_EQ(a.noc_hol_stall_cycles, b.noc_hol_stall_cycles)
        << "trial " << trial;
    EXPECT_EQ(a.noc_backpressure_stalls, b.noc_backpressure_stalls)
        << "trial " << trial;
    EXPECT_EQ(a.noc_latency_cycles, b.noc_latency_cycles)
        << "trial " << trial;
    EXPECT_EQ(a.noc_max_step_link_flits, b.noc_max_step_link_flits)
        << "trial " << trial;
    EXPECT_EQ(a.noc_latency_ps, b.noc_latency_ps) << "trial " << trial;
    EXPECT_EQ(a.noc_max_link_utilisation, b.noc_max_link_utilisation)
        << "trial " << trial;
    EXPECT_EQ(a.noc_cut_flits, b.noc_cut_flits) << "trial " << trial;
    EXPECT_EQ(a.est_time_ps, b.est_time_ps) << "trial " << trial;
    EXPECT_EQ(a.reload_time_ps, b.reload_time_ps)
        << "trial " << trial;
    EXPECT_EQ(a.dynamic_energy_j, b.dynamic_energy_j)
        << "trial " << trial;
}

/** A fast-kernel build to fuzz; nullptr = the one the process picked. */
using KernelBuild = const chip::kernel::Variant *;

/** A chip whose fast path runs @p build (or the picked one). */
chip::SushiChip
fastChip(const compiler::ChipConfig &cfg, KernelBuild build)
{
    chip::SushiChip c(cfg);
    c.setPackedKernels(true);
    if (build != nullptr)
        chip::kernel::pin(c, *build);
    return c;
}

void
fuzzStepLayer(KernelBuild build)
{
    for (int trial = 0; trial < 40; ++trial) {
        Rng rng(7000 + static_cast<std::uint64_t>(trial));
        const auto net = tinyNet(5 + rng.below(36), 4 + rng.below(13),
                                 2 + rng.below(5),
                                 1 + static_cast<int>(rng.below(4)),
                                 8000 + static_cast<std::uint64_t>(
                                            trial));
        compiler::ChipConfig ccfg;
        ccfg.n = rng.chance(0.5) ? 4 : 8;
        // Tiny counters force wrap-around carries and borrows.
        ccfg.sc_per_npe = 3 + static_cast<int>(rng.below(3));
        const auto compiled = compiler::compileNetwork(net, ccfg);

        chip::SushiChip fast = fastChip(ccfg, build), oracle(ccfg);
        oracle.setPackedKernels(false);
        EXPECT_TRUE(fast.packedKernels());
        EXPECT_FALSE(oracle.packedKernels());
        if (trial % 3 == 0) {
            const int slot = static_cast<int>(rng.below(
                static_cast<std::uint64_t>(ccfg.n)));
            fast.markNpeFailed(slot);
            oracle.markNpeFailed(slot);
        }

        for (std::size_t l = 0; l < compiled.layers.size(); ++l) {
            const auto &blayer = net.layers()[l];
            for (int rep = 0; rep < 4; ++rep) {
                chip::PulseVector act(blayer.inDim());
                for (auto &v : act)
                    // Values > 1 exercise the multi-pulse extras.
                    v = static_cast<std::uint16_t>(rng.below(4));
                const auto a =
                    fast.stepLayer(compiled.layers[l], blayer, act);
                const auto b = oracle.stepLayer(compiled.layers[l],
                                                blayer, act);
                ASSERT_EQ(a, b) << "trial " << trial << " layer "
                                << l << " rep " << rep;
            }
        }
        expectStatsEq(fast.stats(), oracle.stats(), trial);
    }
}

/** A random +-1 layer (about 5% zero weights) with thresholds in
 *  [-2, 2^sc_per_npe]: nearly every neuron fits a tiny counter, a
 *  few are disabled. */
snn::BinaryLayer
randomChipLayer(std::size_t in_dim, std::size_t out_dim,
                int sc_per_npe, Rng &rng)
{
    snn::BinaryLayer layer;
    layer.weights.assign(out_dim, std::vector<std::int8_t>(in_dim));
    for (auto &row : layer.weights)
        for (auto &w : row)
            w = rng.chance(0.05) ? 0 : rng.chance(0.5) ? -1 : 1;
    for (std::size_t o = 0; o < out_dim; ++o)
        layer.thresholds.push_back(
            static_cast<int>(rng.range(-2, 1 << sc_per_npe)));
    return layer;
}

TEST(ChipParity, StepLayerFastVsOracleFuzz)
{
    fuzzStepLayer(nullptr);
}

void
fuzzMultiWord(KernelBuild build)
{
    // Multi-word sign rows: buckets that start, end and straddle
    // 64-bit word boundaries, empty to full activations, and
    // multi-pulse inputs large enough to wrap a 2- or 3-SC counter
    // several times within one bucket.
    const int bucket_sizes[] = {7, 24, 64, 100, 0}; // 0: unbucketed
    const double densities[] = {0.0, 0.12, 0.5, 1.0};
    int straddling = 0, multi_bucket = 0;
    for (int trial = 0; trial < 40; ++trial) {
        Rng rng(9100 + static_cast<std::uint64_t>(trial));
        compiler::ChipConfig ccfg;
        ccfg.n = rng.chance(0.5) ? 4 : 8;
        ccfg.sc_per_npe = 2 + static_cast<int>(rng.below(2));
        const int bs = bucket_sizes[trial % 5];
        ccfg.bucketing.bucketing = bs > 0;
        if (bs > 0)
            ccfg.bucketing.bucket_size = bs;
        const std::size_t in_dim = trial % 4 == 0
                                       ? 64 * (2 + rng.below(3))
                                       : 65 + rng.below(236);
        const std::size_t hidden = 8 + rng.below(90);
        const auto net = snn::BinarySnn::fromLayers(
            {randomChipLayer(in_dim, hidden, ccfg.sc_per_npe, rng),
             randomChipLayer(hidden, 2 + rng.below(5), ccfg.sc_per_npe,
                             rng)},
            1);
        const auto compiled = compiler::compileNetwork(net, ccfg);
        for (const auto &layer : compiled.layers) {
            multi_bucket += layer.schedule.buckets.size() > 1 ? 1 : 0;
            for (const auto &b : layer.schedule.buckets)
                straddling += b.begin / 64 != (b.end - 1) / 64 ? 1 : 0;
        }

        chip::SushiChip fast = fastChip(ccfg, build), oracle(ccfg);
        oracle.setPackedKernels(false);
        if (trial % 3 == 0) {
            const int slot = static_cast<int>(rng.below(
                static_cast<std::uint64_t>(ccfg.n)));
            fast.markNpeFailed(slot);
            oracle.markNpeFailed(slot);
        }

        const double density = densities[(trial / 5) % 4];
        auto randomAct = [&](std::size_t dim) {
            chip::PulseVector act(dim, 0);
            for (auto &v : act)
                if (rng.chance(density))
                    v = static_cast<std::uint16_t>(
                        rng.chance(0.2) ? 1 + rng.below(40) : 1);
            return act;
        };
        for (std::size_t l = 0; l < compiled.layers.size(); ++l) {
            const auto &blayer = net.layers()[l];
            for (int rep = 0; rep < 3; ++rep) {
                const auto act = randomAct(blayer.inDim());
                ASSERT_EQ(
                    fast.stepLayer(compiled.layers[l], blayer, act),
                    oracle.stepLayer(compiled.layers[l], blayer, act))
                    << "trial " << trial << " layer " << l << " rep "
                    << rep;
            }
        }
        const auto input = randomAct(in_dim);
        ASSERT_EQ(fast.stepNetwork(compiled, input),
                  oracle.stepNetwork(compiled, input))
            << "trial " << trial;
        expectStatsEq(fast.stats(), oracle.stats(), trial);
    }
    EXPECT_GT(straddling, 0);
    EXPECT_GT(multi_bucket, 0);
}

TEST(ChipParity, MultiWordStepLayerFastVsOracleFuzz)
{
    fuzzMultiWord(nullptr);
}

void
fuzzLaneGroups(KernelBuild build)
{
    // Output widths around the vector build's groups of eight
    // neurons: a one-lane and a seven-lane partial group, whole
    // groups, one-lane tails and the digits net's hidden layer. A
    // random third of the neurons is disabled, so groups mix
    // disabled and live lanes; every chip has a failed NPE slot.
    const std::size_t out_dims[] = {1, 7, 8, 9, 17, 96};
    const int bucket_sizes[] = {0, 7, 24, 64}; // 0: unbucketed
    int mixed_groups = 0, tail_extras = 0;
    for (int trial = 0; trial < 48; ++trial) {
        Rng rng(9700 + static_cast<std::uint64_t>(trial));
        compiler::ChipConfig ccfg;
        ccfg.n = rng.chance(0.5) ? 4 : 8;
        ccfg.sc_per_npe = 2 + static_cast<int>(rng.below(3));
        const int bs = bucket_sizes[trial % 4];
        ccfg.bucketing.bucketing = bs > 0;
        if (bs > 0)
            ccfg.bucketing.bucket_size = bs;
        const std::size_t out_dim = out_dims[trial % 6];
        const std::size_t in_dim = 5 + rng.below(300);
        const int budget = 1 << ccfg.sc_per_npe;
        auto layer =
            randomChipLayer(in_dim, out_dim, ccfg.sc_per_npe, rng);
        layer.thresholds[0] = static_cast<int>(rng.range(-2, budget - 1));
        for (std::size_t o = 1; o < out_dim; ++o)
            if (rng.chance(1.0 / 3.0))
                layer.thresholds[o] =
                    budget + static_cast<int>(rng.below(10));
        const auto net = snn::BinarySnn::fromLayers({layer}, 1);
        const auto compiled = compiler::compileNetwork(net, ccfg);
        const auto &disabled = compiled.layers[0].disabled;
        for (std::size_t o0 = 0; o0 < out_dim; o0 += 8) {
            const auto end = disabled.begin() + static_cast<std::ptrdiff_t>(
                                                    std::min(o0 + 8, out_dim));
            const auto begin =
                disabled.begin() + static_cast<std::ptrdiff_t>(o0);
            mixed_groups += std::count(begin, end, 0) > 0 &&
                            std::count(begin, end, 1) > 0;
        }

        chip::SushiChip fast = fastChip(ccfg, build), oracle(ccfg);
        oracle.setPackedKernels(false);
        const int slot = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(ccfg.n)));
        fast.markNpeFailed(slot);
        oracle.markNpeFailed(slot);

        const double density = rng.uniform(0.05, 1.0);
        for (int rep = 0; rep < 4; ++rep) {
            chip::PulseVector act(in_dim, 0);
            bool multi = false;
            for (auto &v : act) {
                if (!rng.chance(density))
                    continue;
                v = static_cast<std::uint16_t>(
                    rng.chance(0.3) ? 2 + rng.below(20) : 1);
                multi = multi || v > 1;
            }
            tail_extras += multi && out_dim % 8 != 0;
            ASSERT_EQ(fast.stepLayer(compiled.layers[0], layer, act),
                      oracle.stepLayer(compiled.layers[0], layer, act))
                << "trial " << trial << " rep " << rep;
        }
        expectStatsEq(fast.stats(), oracle.stats(), trial);
    }
    EXPECT_GT(mixed_groups, 0);
    EXPECT_GT(tail_extras, 0);
}

TEST(ChipParity, LaneGroupFastVsOracleFuzz)
{
    fuzzLaneGroups(nullptr);
}

/** The three fuzzes again, once per kernel build this CPU runs. */
class ChipKernelParity : public ::testing::TestWithParam<std::string>
{
  protected:
    void SetUp() override
    {
        for (const auto &v : chip::kernel::variants())
            if (GetParam() == v.name)
                build_ = &v;
        if (build_ == nullptr)
            GTEST_SKIP() << "kernel build " << GetParam()
                         << " is not compiled for this target";
        if (build_->isa > hostIsa())
            GTEST_SKIP() << "kernel build " << GetParam()
                         << " needs instructions this CPU lacks";
    }

    KernelBuild build_ = nullptr;
};

TEST_P(ChipKernelParity, StepLayerFastVsOracleFuzz)
{
    fuzzStepLayer(build_);
}

TEST_P(ChipKernelParity, MultiWordStepLayerFastVsOracleFuzz)
{
    fuzzMultiWord(build_);
}

TEST_P(ChipKernelParity, LaneGroupFastVsOracleFuzz)
{
    fuzzLaneGroups(build_);
}

INSTANTIATE_TEST_SUITE_P(Builds, ChipKernelParity,
                         ::testing::Values("default", "popcnt",
                                           "avx512"),
                         [](const auto &info) { return info.param; });

TEST(ChipParity, ZeroWeightStepsLikePlusOne)
{
    // A zero weight is excitatory on the chip: the layer must step
    // exactly like the same layer with that weight set to +1, in
    // both kernels (the fast kernel reads the compiled sign rows,
    // the oracle walks the weights).
    snn::BinaryLayer zero;
    zero.weights = {{-1, -1, -1, 1, 1, 0, 1, -1},
                    {-1, -1, 1, -1, 1, 1, 0, 1},
                    {-1, 0, -1, -1, 1, 1, 1, 1}};
    zero.thresholds = {1, 2, 0};
    snn::BinaryLayer plus = zero;
    for (auto &row : plus.weights)
        for (auto &w : row)
            if (w == 0)
                w = 1;
    const auto zero_net = snn::BinarySnn::fromLayers({zero}, 1);
    const auto plus_net = snn::BinarySnn::fromLayers({plus}, 1);

    compiler::ChipConfig ccfg;
    ccfg.n = 4;
    ccfg.sc_per_npe = 3; // tiny counter: wraps and borrows
    ccfg.bucketing.bucket_size = 4;
    // Reordering keys on weight > 0; keep both schedules equal so
    // only the chip's handling of the zero weight is under test.
    ccfg.bucketing.reorder = false;
    const auto zero_c = compiler::compileNetwork(zero_net, ccfg);
    const auto plus_c = compiler::compileNetwork(plus_net, ccfg);
    const auto &zl = zero_c.layers[0];
    const auto &pl = plus_c.layers[0];
    ASSERT_EQ(zl.schedule.order, pl.schedule.order);
    ASSERT_EQ(zl.schedule.buckets.size(), pl.schedule.buckets.size());

    chip::SushiChip zero_fast(ccfg), zero_oracle(ccfg),
        plus_fast(ccfg), plus_oracle(ccfg);
    zero_fast.setPackedKernels(true);
    plus_fast.setPackedKernels(true);
    zero_oracle.setPackedKernels(false);
    plus_oracle.setPackedKernels(false);
    Rng rng(4242);
    for (int rep = 0; rep < 32; ++rep) {
        chip::PulseVector act(8);
        for (auto &v : act)
            // Values > 1 exercise the multi-pulse extras.
            v = static_cast<std::uint16_t>(rng.below(4));
        const auto ref =
            plus_oracle.stepLayer(pl, plus_net.layers()[0], act);
        EXPECT_EQ(plus_fast.stepLayer(pl, plus_net.layers()[0], act),
                  ref)
            << "rep " << rep;
        EXPECT_EQ(zero_fast.stepLayer(zl, zero_net.layers()[0], act),
                  ref)
            << "rep " << rep;
        EXPECT_EQ(
            zero_oracle.stepLayer(zl, zero_net.layers()[0], act), ref)
            << "rep " << rep;
    }
    expectStatsEq(zero_fast.stats(), plus_oracle.stats(), 0);
    expectStatsEq(zero_oracle.stats(), plus_oracle.stats(), 1);
    expectStatsEq(plus_fast.stats(), plus_oracle.stats(), 2);
}

TEST(ChipParity, InferCountsFollowsGlobalToggle)
{
    // A chip runs its fast kernel unless setPackedKernels(false)
    // pins it to the Npe oracle; whole-network inference agrees.
    const auto net = tinyNet(24, 10, 4, 4, 41);
    compiler::ChipConfig ccfg;
    ccfg.n = 8;
    ccfg.sc_per_npe = 4;
    const auto compiled = compiler::compileNetwork(net, ccfg);
    const auto frames = randomFrames(24, 4, 0.5, 11);

    chip::SushiChip fast(ccfg);
    EXPECT_TRUE(fast.packedKernels());
    const auto counts_fast = fast.inferCounts(compiled, frames);

    chip::SushiChip oracle(ccfg);
    oracle.setPackedKernels(false);
    EXPECT_FALSE(oracle.packedKernels());
    const auto counts_oracle = oracle.inferCounts(compiled, frames);

    EXPECT_EQ(counts_fast, counts_oracle);
    expectStatsEq(fast.stats(), oracle.stats(), -1);
}

std::shared_ptr<const engine::CompiledModel>
smallModel()
{
    compiler::ChipConfig ccfg;
    ccfg.n = 8;
    ccfg.sc_per_npe = 10;
    return engine::CompiledModel::compile(tinyNet(16, 8, 4, 3, 7),
                                          ccfg);
}

std::vector<engine::Sample>
randomSamples(std::size_t n, std::size_t dim, int t_steps,
              std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<engine::Sample> samples(n);
    for (auto &s : samples) {
        for (int t = 0; t < t_steps; ++t) {
            std::vector<std::uint8_t> f(dim);
            for (auto &v : f)
                v = rng.chance(0.4) ? 1 : 0;
            s.push_back(std::move(f));
        }
    }
    return samples;
}

TEST(EngineParity, MergedStatsByteIdentical)
{
    // The engine's fast kernel on three replicas against one Npe
    // oracle chip per sample, merged in sample order.
    const auto model = smallModel();
    const auto samples = randomSamples(24, 16, 3, 5);

    engine::EngineConfig cfg;
    cfg.replicas = 3;
    engine::InferenceEngine eng(model, cfg);
    const auto run = eng.run(samples);
    ASSERT_EQ(run.samples.size(), samples.size());

    chip::InferenceStats want;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        chip::SushiChip oracle(model->chip());
        oracle.setPackedKernels(false);
        const auto counts =
            oracle.inferCounts(model->compiled(), samples[i]);
        EXPECT_EQ(run.samples[i].counts, counts) << "sample " << i;
        want.accumulate(oracle.stats());
    }
    want.dynamic_energy_j = chip::dynamicEnergyJ(want.synaptic_ops);
    EXPECT_EQ(engine::statsJson(run.merged), engine::statsJson(want));
}

TEST(BinarizeFuzz, SignOfZeroAndNaN)
{
    snn::Tensor w(1, 4);
    w.at(0, 0) = 0.0f;
    w.at(0, 1) = -0.0f; // must binarize like +0.0f
    w.at(0, 2) = -1.0f;
    w.at(0, 3) = std::numeric_limits<float>::quiet_NaN();
    const auto layer = snn::binarizeLayer(w, {0.0f}, 1.0f);
    EXPECT_EQ(layer.weights[0][0], 1);
    EXPECT_EQ(layer.weights[0][1], 1);
    EXPECT_EQ(layer.weights[0][2], -1);
    EXPECT_EQ(layer.weights[0][3], -1);

    // Effective weights round with the identical predicate.
    const auto eff = snn::binaryEffectiveWeights(w);
    EXPECT_GT(eff.at(0, 0), 0.0f);
    EXPECT_GT(eff.at(0, 1), 0.0f);
    EXPECT_LT(eff.at(0, 2), 0.0f);
    EXPECT_LT(eff.at(0, 3), 0.0f);
}

TEST(BinarizeFuzz, ExtremeFloatsClampDeterministically)
{
    // Denormal weights: alpha is tiny but positive, the raw
    // threshold is astronomical — the clamp must keep the double ->
    // int cast defined (UBSan enforces this) and land on the
    // "never fires" sentinel in_dim + 1.
    const std::size_t in = 6;
    snn::Tensor w(2, in);
    for (std::size_t i = 0; i < in; ++i) {
        w.at(0, i) = 1.0e-42f;
        w.at(1, i) = -1.0e-42f;
    }
    const auto tiny =
        snn::binarizeLayer(w, {0.0f, 0.0f}, 1.0f);
    EXPECT_EQ(tiny.thresholds[0], static_cast<int>(in) + 1);
    EXPECT_EQ(tiny.thresholds[1], static_cast<int>(in) + 1);

    // Runaway biases push the raw threshold to +-huge; both ends
    // clamp to the always/never-fires sentinels.
    snn::Tensor w2(2, in);
    for (std::size_t i = 0; i < in; ++i) {
        w2.at(0, i) = 0.5f;
        w2.at(1, i) = 0.5f;
    }
    const auto big =
        snn::binarizeLayer(w2, {1.0e30f, -1.0e30f}, 1.0f);
    EXPECT_EQ(big.thresholds[0], -(static_cast<int>(in) + 1));
    EXPECT_EQ(big.thresholds[1], static_cast<int>(in) + 1);

    // The clamped network still runs and behaves as the sentinels
    // say: neuron 0 fires every step, neuron 1 never.
    auto net = snn::BinarySnn::fromLayers({big}, 1);
    const auto spikes =
        net.stepForward(std::vector<std::uint8_t>(in, 0));
    EXPECT_EQ(spikes[0], 1);
    EXPECT_EQ(spikes[1], 0);

    // Fuzz sweep over nasty magnitudes: every threshold must stay in
    // the defined clamp range whatever the weight/bias scales.
    Rng rng(4242);
    const float scales[] = {1.0e-42f, 1.0e-30f, 1.0e-6f, 1.0f,
                            1.0e6f,   1.0e30f,  3.4e38f};
    for (int c = 0; c < 60; ++c) {
        const std::size_t dim = 1 + rng.below(80);
        snn::Tensor wf(1, dim);
        for (std::size_t i = 0; i < dim; ++i) {
            const float s = scales[rng.below(7)];
            wf.at(0, i) = rng.chance(0.5) ? s : -s;
        }
        const float bias =
            static_cast<float>(rng.uniform(-1.0, 1.0)) *
            scales[rng.below(7)];
        const auto layer = snn::binarizeLayer(wf, {bias}, 1.0f);
        EXPECT_LE(layer.thresholds[0], static_cast<int>(dim) + 1)
            << "case " << c;
        EXPECT_GE(layer.thresholds[0], -(static_cast<int>(dim) + 1))
            << "case " << c;
    }
}

} // namespace
} // namespace sushi
