/**
 * @file
 * Binarized FC forward throughput: the packed XNOR/popcount kernel
 * of the binarization-aware trainer (snn::packed::effectiveForward)
 * vs its element-wise scalar oracle on the paper's layer geometry
 * (784 -> 800, Sec. 6) across a 256-sample batch.
 *
 * The batch-major packed kernel fetches each packed weight row once
 * and streams it over the whole batch, so the headline number is
 * synaptic ops/sec (batch * out_dim * in_dim per pass). Correctness
 * is asserted bit-exactly before any number is reported — packed
 * outputs (bias + alpha * dot) must equal both the scalar-oracle
 * outputs and an independent reference taken straight off the +-1
 * signs — so a fast but wrong kernel fails instead of "winning". A
 * dense float linearForward pass over the same effective weights is
 * timed alongside as context (the path the trainer takes for weights
 * without the exact +-alpha structure).
 *
 * Environment:
 *   SUSHI_JSON_OUT  output path (default BENCH_snn.json)
 *   SUSHI_FULL=1    more repetitions (slower, steadier numbers)
 *
 * Exit status is nonzero when any kernel disagrees or the packed
 * kernel's speedup over the scalar oracle regresses below the 10x
 * acceptance floor (single-threaded, so the floor is a property of
 * the kernel, not of the runner's core count).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "snn/packed.hh"
#include "snn/tensor.hh"

#include "bench_util.hh"

using namespace sushi;
using snn::packed::Backend;
using snn::packed::PackedActivations;
using snn::packed::PackedLayer;

namespace {

/** Paper Sec. 6 hidden layer: INPUT 28*28 -> FC(800). */
constexpr std::size_t kInDim = 784;
constexpr std::size_t kOutDim = 800;
constexpr std::size_t kBatch = 256;

/** The packed kernel must beat the scalar oracle by at least this
 *  factor on the workload above (enforced via exit status). */
constexpr double kSpeedupFloor = 10.0;

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

int
main()
{
    const int reps = benchutil::envFlag("SUSHI_FULL") ? 30 : 8;
    const double synops = static_cast<double>(kInDim) *
                          static_cast<double>(kOutDim) *
                          static_cast<double>(kBatch);

    // Deterministic workload: random +-alpha_o effective weights,
    // biases, and a 30%-dense binary activation batch.
    Rng rng(20260809);
    snn::Tensor eff(kOutDim, kInDim);
    std::vector<float> bias(kOutDim);
    for (std::size_t o = 0; o < kOutDim; ++o) {
        const auto alpha = static_cast<float>(rng.uniform(0.01, 1.0));
        for (std::size_t i = 0; i < kInDim; ++i)
            eff.at(o, i) = rng.chance(0.5) ? alpha : -alpha;
        bias[o] = static_cast<float>(rng.uniform(-30.0, 30.0));
    }
    const PackedLayer layer = PackedLayer::fromEffective(eff, bias);
    snn::Tensor xf(kBatch, kInDim);
    for (std::size_t i = 0; i < xf.size(); ++i)
        xf.data()[i] = rng.chance(0.3) ? 1.0f : 0.0f;
    PackedActivations x;
    if (!layer.packable() || !snn::packed::packFloatRows(xf, x)) {
        std::fprintf(stderr, "workload failed to pack\n");
        return 1;
    }

    // Independent reference, computed once: the integer dot straight
    // off the +-1 signs, then the trainer's epilogue.
    snn::Tensor want(kBatch, kOutDim);
    for (std::size_t b = 0; b < kBatch; ++b) {
        for (std::size_t o = 0; o < kOutDim; ++o) {
            int dot = 0;
            for (std::size_t i = 0; i < kInDim; ++i)
                if (xf.at(b, i) != 0.0f)
                    dot += eff.at(o, i) > 0.0f ? 1 : -1;
            want.at(b, o) =
                bias[o] + layer.alpha()[o] * static_cast<float>(dot);
        }
    }

    std::printf("=== Binarized FC forward (%zu -> %zu, batch %zu) "
                "===\n",
                kInDim, kOutDim, kBatch);
    std::printf("%.3g synaptic ops/pass, best of %d repetitions\n",
                synops, reps);

    snn::Tensor out(kBatch, kOutDim);
    bool correct = true;

    auto timeKernel = [&](Backend backend, int threads) {
        double best = 1e300;
        for (int r = 0; r < reps; ++r) {
            out.zero();
            const auto t0 = std::chrono::steady_clock::now();
            snn::packed::effectiveForward(layer, x, out, backend,
                                          threads);
            const auto t1 = std::chrono::steady_clock::now();
            best = std::min(best, seconds(t0, t1));
            correct &= std::memcmp(out.data(), want.data(),
                                   out.size() * sizeof(float)) == 0;
        }
        return synops / best;
    };

    const double scalar_ops = timeKernel(Backend::Scalar, 1);
    const double packed_ops = timeKernel(Backend::Packed, 1);
    const double packed_mt_ops = timeKernel(Backend::Packed, 0);

    // Dense float context: the same effective weights through the
    // float linearForward pass.
    snn::Tensor hf(kBatch, kOutDim);
    double float_best = 1e300;
    double float_sink = 0.0;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        snn::linearForward(xf, eff, bias, hf);
        const auto t1 = std::chrono::steady_clock::now();
        float_best = std::min(float_best, seconds(t0, t1));
        float_sink += hf.at(0, 0);
    }
    const double float_ops = synops / float_best;

    const double speedup = packed_ops / scalar_ops;
    const double speedup_vs_float = packed_ops / float_ops;
    const unsigned hw = std::thread::hardware_concurrency();

    std::printf("scalar oracle : %10.3g synops/sec\n", scalar_ops);
    std::printf("dense float   : %10.3g synops/sec (sink %g)\n",
                float_ops, float_sink);
    std::printf("packed (1t)   : %10.3g synops/sec\n", packed_ops);
    std::printf("packed (pool) : %10.3g synops/sec (%u hw threads)\n",
                packed_mt_ops, hw);
    std::printf("outputs %s; packed vs scalar: %.1fx (floor %.0fx), "
                "vs dense float: %.1fx\n",
                correct ? "bit-exact" : "MISMATCH", speedup,
                kSpeedupFloor, speedup_vs_float);

    JsonWriter w;
    w.field("workload", "binarized_fc_effective_forward");
    w.field("in_dim", static_cast<std::uint64_t>(kInDim));
    w.field("out_dim", static_cast<std::uint64_t>(kOutDim));
    w.field("batch", static_cast<std::uint64_t>(kBatch));
    w.field("reps", reps);
    w.field("synops_per_pass", synops);
    w.field("outputs_ok", correct);
    w.field("scalar_synops_per_sec", scalar_ops);
    w.field("float_synops_per_sec", float_ops);
    w.field("packed_synops_per_sec", packed_ops);
    w.field("packed_pool_synops_per_sec", packed_mt_ops);
    w.field("hardware_concurrency", static_cast<std::uint64_t>(hw));
    w.field("speedup_packed_vs_scalar", speedup);
    w.field("speedup_packed_vs_float", speedup_vs_float);
    w.field("speedup_floor", kSpeedupFloor);
    w.field("floor_enforced", true);
    const std::string json = w.finish();

    const char *env_path = std::getenv("SUSHI_JSON_OUT");
    const std::string path =
        env_path != nullptr && env_path[0] != '\0' ? env_path
                                                   : "BENCH_snn.json";
    if (!JsonWriter::writeFile(path, json)) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
    }
    std::printf("JSON written to %s\n", path.c_str());

    return correct && speedup >= kSpeedupFloor ? 0 : 1;
}
