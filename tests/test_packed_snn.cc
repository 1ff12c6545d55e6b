/**
 * @file
 * Differential-fuzzing parity harness for the bit-packed
 * XNOR/popcount kernel layer (snn/packed) and every call site wired
 * behind the SUSHI_PACKED toggle:
 *
 *  - packed vs scalar-oracle kernels over hundreds of seeded random
 *    shapes (ragged in_dim % 64 in {0, 1, 63}, batch = 1, varying
 *    thread counts) — bit-identical spikes and floats;
 *  - BinarySnn::stepForward and SnnMlp::forwardWith toggle on/off —
 *    byte-identical results, including the fall-back cases (zero
 *    weights, non-binary structure) where packing must refuse;
 *  - SushiChip crossing-count counter vs the Npe-object oracle, for
 *    every fast-kernel build the CPU runs, including wrap-around
 *    borrows (tiny counters), multi-pulse extras, buckets straddling
 *    64-bit sign-row words, partial and mixed disabled/live groups
 *    of eight neurons, and degraded-mode remaps;
 *  - InferenceEngine / Server virtual-clock replay with packed
 *    kernels forced on vs off — byte-identical stats/metrics JSON;
 *  - binarize deterministic-rounding fixes (sign of zero, NaN,
 *    denormal alpha, astronomically large raw thresholds).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <vector>

#include "chip/kernel.hh"
#include "chip/sushi_chip.hh"
#include "common/cpu.hh"
#include "common/rng.hh"
#include "compiler/compile.hh"
#include "engine/inference_engine.hh"
#include "serve/server.hh"
#include "snn/binarize.hh"
#include "snn/network.hh"
#include "snn/packed.hh"
#include "snn/train.hh"

namespace sushi {
namespace {

using snn::packed::Backend;
using snn::packed::PackedActivations;
using snn::packed::PackedLayer;

/** Restores the process-wide packed toggle on scope exit, so a test
 *  that flips it can never leak state into later tests. */
struct ToggleGuard
{
    bool prev = snn::packed::enabled();
    ~ToggleGuard() { snn::packed::setEnabled(prev); }
};

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

TEST(PackedFuzz, SpikeForwardDifferential)
{
    const int kThreads[] = {0, 1, 2, 8};
    for (int c = 0; c < 240; ++c) {
        Rng rng(1000 + static_cast<std::uint64_t>(c));
        const std::size_t in_dim = sampleInDim(c, rng);
        const std::size_t out_dim = 1 + rng.below(40);
        const std::size_t batch = c % 5 == 0 ? 1 : 1 + rng.below(6);
        const int threads = kThreads[rng.below(4)];

        std::vector<std::vector<std::int8_t>> w(out_dim);
        std::vector<int> thr(out_dim);
        for (std::size_t o = 0; o < out_dim; ++o) {
            w[o].resize(in_dim);
            for (auto &v : w[o])
                v = rng.chance(0.5) ? 1 : -1;
            thr[o] = static_cast<int>(
                rng.range(-static_cast<std::int64_t>(in_dim) - 1,
                          static_cast<std::int64_t>(in_dim) + 1));
        }
        const PackedLayer layer = PackedLayer::fromSigned(w, thr);
        ASSERT_TRUE(layer.packable()) << "case " << c;

        std::vector<std::vector<std::uint8_t>> act(batch);
        std::vector<const std::uint8_t *> rows(batch);
        for (std::size_t b = 0; b < batch; ++b) {
            act[b].resize(in_dim);
            for (auto &v : act[b])
                v = rng.chance(rng.uniform()) ? 1 : 0;
            rows[b] = act[b].data();
        }
        PackedActivations x;
        snn::packed::packRows(rows.data(), batch, in_dim, x);

        std::vector<std::uint8_t> fast(batch * out_dim, 9);
        std::vector<std::uint8_t> oracle(batch * out_dim, 9);
        snn::packed::spikeForward(layer, x, fast.data(),
                                  Backend::Packed, threads);
        snn::packed::spikeForward(layer, x, oracle.data(),
                                  Backend::Scalar, 1);
        ASSERT_EQ(fast, oracle) << "case " << c;

        // Independent plain-int reference, straight off the signed
        // weights — catches a bug shared by both kernel backends.
        for (std::size_t b = 0; b < batch; ++b) {
            for (std::size_t o = 0; o < out_dim; ++o) {
                int dot = 0;
                for (std::size_t i = 0; i < in_dim; ++i)
                    if (act[b][i])
                        dot += w[o][i];
                const std::uint8_t want = dot >= thr[o] ? 1 : 0;
                ASSERT_EQ(fast[b * out_dim + o], want)
                    << "case " << c << " b " << b << " o " << o;
            }
        }
    }
}

TEST(PackedFuzz, EffectiveForwardDifferential)
{
    const int kThreads[] = {0, 1, 2, 8};
    for (int c = 0; c < 120; ++c) {
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

        snn::Tensor x(batch, in_dim);
        for (std::size_t i = 0; i < x.size(); ++i)
            x.data()[i] = rng.chance(0.5) ? 1.0f : 0.0f;
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
    }
}

TEST(PackedLayer, RejectsNonBinaryInputs)
{
    // A zero int8 weight is not packable.
    std::vector<std::vector<std::int8_t>> w = {{1, -1, 0}};
    EXPECT_FALSE(PackedLayer::fromSigned(w, {0}).packable());

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

TEST(PackedToggle, SetterControlsBackend)
{
    ToggleGuard guard;
    snn::packed::setEnabled(false);
    EXPECT_FALSE(snn::packed::enabled());
    EXPECT_EQ(snn::packed::activeBackend(), Backend::Scalar);
    snn::packed::setEnabled(true);
    EXPECT_TRUE(snn::packed::enabled());
    EXPECT_EQ(snn::packed::activeBackend(), Backend::Packed);
}

TEST(BinarySnnParity, ToggleByteIdentical)
{
    ToggleGuard guard;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const auto net = tinyNet(70, 12, 4, 3, 60 + seed);
        ASSERT_TRUE(net.packedReady());
        ASSERT_EQ(net.packedLayers().size(), net.layers().size());
        const auto frames = randomFrames(70, 3, 0.4, 200 + seed);

        snn::packed::setEnabled(true);
        const auto on_counts = net.forwardCounts(frames);
        const auto on_step = net.stepForward(frames[0]);
        snn::packed::setEnabled(false);
        const auto off_counts = net.forwardCounts(frames);
        const auto off_step = net.stepForward(frames[0]);

        EXPECT_EQ(on_counts, off_counts) << "seed " << seed;
        EXPECT_EQ(on_step, off_step) << "seed " << seed;
    }
}

TEST(BinarySnnParity, ZeroWeightKeepsScalarPath)
{
    ToggleGuard guard;
    // Hand-built layer with a zero weight: packing must refuse and
    // the toggle must have no effect on results.
    snn::BinaryLayer layer;
    layer.weights = {{1, 0, -1, 1}, {-1, -1, 1, 1}};
    layer.thresholds = {1, 0};
    auto net = snn::BinarySnn::fromLayers({layer}, 2);
    EXPECT_FALSE(net.packedReady());

    const auto frames = randomFrames(4, 2, 0.6, 77);
    snn::packed::setEnabled(true);
    const auto on = net.forwardCounts(frames);
    snn::packed::setEnabled(false);
    const auto off = net.forwardCounts(frames);
    EXPECT_EQ(on, off);
}

TEST(TrainerParity, ForwardWithToggleByteIdentical)
{
    ToggleGuard guard;
    snn::SnnConfig cfg;
    cfg.input = 66; // ragged lane tail
    cfg.hidden = 9;
    cfg.output = 3;
    cfg.t_steps = 3;
    snn::SnnMlp net(cfg, 17);
    const snn::Tensor e1 = snn::binaryEffectiveWeights(net.w1);
    const snn::Tensor e2 = snn::binaryEffectiveWeights(net.w2);

    Rng rng(91);
    std::vector<snn::Tensor> frames;
    for (int t = 0; t < cfg.t_steps; ++t) {
        snn::Tensor f(5, cfg.input);
        for (std::size_t i = 0; i < f.size(); ++i)
            f.data()[i] = rng.chance(0.5) ? 1.0f : 0.0f;
        frames.push_back(std::move(f));
    }

    snn::ForwardTrace tr_on, tr_off;
    snn::packed::setEnabled(true);
    const snn::Tensor on = net.forwardWith(e1, e2, frames, &tr_on);
    snn::packed::setEnabled(false);
    const snn::Tensor off = net.forwardWith(e1, e2, frames, &tr_off);

    ASSERT_EQ(on.size(), off.size());
    EXPECT_EQ(std::memcmp(on.data(), off.data(),
                          on.size() * sizeof(float)),
              0);
    for (int t = 0; t < cfg.t_steps; ++t) {
        const auto ti = static_cast<std::size_t>(t);
        EXPECT_EQ(std::memcmp(tr_on.v1_pre[ti].data(),
                              tr_off.v1_pre[ti].data(),
                              tr_on.v1_pre[ti].size() * sizeof(float)),
                  0)
            << "t " << t;
        EXPECT_EQ(std::memcmp(tr_on.s2[ti].data(),
                              tr_off.s2[ti].data(),
                              tr_on.s2[ti].size() * sizeof(float)),
                  0)
            << "t " << t;
    }
}

TEST(TrainerParity, TrainingRunToggleByteIdentical)
{
    ToggleGuard guard;
    snn::SnnConfig cfg;
    cfg.input = 12;
    cfg.hidden = 8;
    cfg.output = 3;
    cfg.t_steps = 2;

    Rng rng(3);
    snn::Tensor images(24, cfg.input);
    for (std::size_t i = 0; i < images.size(); ++i)
        images.data()[i] = static_cast<float>(rng.uniform());
    std::vector<int> labels(24);
    for (auto &l : labels)
        l = static_cast<int>(rng.below(3));

    snn::TrainConfig tcfg;
    tcfg.epochs = 2;
    tcfg.batch = 8;
    tcfg.binary_aware = true;

    auto trainOnce = [&](bool packed_on) {
        snn::packed::setEnabled(packed_on);
        snn::SnnMlp net(cfg, 29);
        snn::Trainer trainer(net, tcfg);
        const snn::TrainStats stats = trainer.fit(images, labels);
        return std::make_tuple(net.w1, net.w2, stats);
    };
    const auto [w1_on, w2_on, st_on] = trainOnce(true);
    const auto [w1_off, w2_off, st_off] = trainOnce(false);

    EXPECT_EQ(std::memcmp(w1_on.data(), w1_off.data(),
                          w1_on.size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(w2_on.data(), w2_off.data(),
                          w2_on.size() * sizeof(float)),
              0);
    EXPECT_EQ(st_on.epoch_loss, st_off.epoch_loss);
    EXPECT_EQ(st_on.epoch_train_acc, st_off.epoch_train_acc);
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
    ToggleGuard guard;
    const auto net = tinyNet(24, 10, 4, 4, 41);
    compiler::ChipConfig ccfg;
    ccfg.n = 8;
    ccfg.sc_per_npe = 4;
    const auto compiled = compiler::compileNetwork(net, ccfg);
    const auto frames = randomFrames(24, 4, 0.5, 11);

    snn::packed::setEnabled(true);
    chip::SushiChip on(ccfg);
    EXPECT_TRUE(on.packedKernels());
    const auto counts_on = on.inferCounts(compiled, frames);

    snn::packed::setEnabled(false);
    chip::SushiChip off(ccfg);
    EXPECT_FALSE(off.packedKernels());
    const auto counts_off = off.inferCounts(compiled, frames);

    EXPECT_EQ(counts_on, counts_off);
    expectStatsEq(on.stats(), off.stats(), -1);
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
    const auto model = smallModel();
    const auto samples = randomSamples(24, 16, 3, 5);

    ToggleGuard guard;
    auto runWith = [&](bool packed_on) {
        snn::packed::setEnabled(packed_on);
        engine::EngineConfig cfg;
        cfg.replicas = 3;
        engine::InferenceEngine eng(model, cfg);
        return eng.run(samples);
    };
    const auto on = runWith(true);
    const auto off = runWith(false);

    ASSERT_EQ(on.samples.size(), off.samples.size());
    for (std::size_t i = 0; i < on.samples.size(); ++i) {
        EXPECT_EQ(on.samples[i].prediction, off.samples[i].prediction)
            << "sample " << i;
        EXPECT_EQ(on.samples[i].counts, off.samples[i].counts)
            << "sample " << i;
    }
    EXPECT_EQ(engine::statsJson(on.merged),
              engine::statsJson(off.merged));
}

TEST(ServeParity, VirtualReplayByteIdentical)
{
    const auto model = smallModel();
    const auto samples = randomSamples(20, 16, 3, 9);

    ToggleGuard guard;
    auto replay = [&](bool packed_on) {
        snn::packed::setEnabled(packed_on);
        serve::ServerConfig cfg;
        cfg.engine.replicas = 2;
        cfg.max_batch = 4;
        cfg.max_delay_ns = 500;
        cfg.clock = serve::ClockMode::Virtual;
        serve::Server server(model, cfg);
        std::vector<std::future<serve::Response>> futs;
        for (std::size_t i = 0; i < samples.size(); ++i)
            futs.push_back(server.submitAt(
                static_cast<std::int64_t>(i) * 120, samples[i]));
        server.runVirtual();
        std::vector<int> preds;
        for (auto &f : futs)
            preds.push_back(f.get().result.prediction);
        return std::make_pair(server.metrics().toJson(),
                              std::move(preds));
    };
    const auto [json_on, preds_on] = replay(true);
    const auto [json_off, preds_off] = replay(false);
    EXPECT_EQ(preds_on, preds_off);
    EXPECT_EQ(json_on, json_off);
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
