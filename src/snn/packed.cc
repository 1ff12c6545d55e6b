#include "snn/packed.hh"

#include <bit>
#include <cmath>

#include "common/cpu.hh"
#include "common/logging.hh"
#include "common/parallel.hh"

namespace sushi::snn::packed {

bool
packFloatRows(const Tensor &x, PackedActivations &out)
{
    const std::size_t batch = x.rows();
    const std::size_t bits = x.cols();
    out.batch = batch;
    out.bits = bits;
    out.words = laneWords(bits);
    out.lanes.assign(batch * out.words, 0);
    out.active.assign(batch, 0);
    for (std::size_t b = 0; b < batch; ++b) {
        const float *src = x.row(b);
        std::uint64_t *dst = out.lanes.data() + b * out.words;
        std::int32_t count = 0;
        for (std::size_t i = 0; i < bits; ++i) {
            if (src[i] == 1.0f) {
                dst[i / 64] |= std::uint64_t{1} << (i % 64);
                ++count;
            } else if (src[i] != 0.0f) {
                return false; // not a spike frame
            }
        }
        out.active[b] = count;
    }
    return true;
}

PackedLayer
PackedLayer::fromEffective(const Tensor &w,
                           const std::vector<float> &bias)
{
    PackedLayer layer;
    layer.out_dim_ = w.rows();
    layer.in_dim_ = w.cols();
    layer.words_ = laneWords(layer.in_dim_);
    layer.signs_.assign(layer.out_dim_ * layer.words_, 0);
    layer.alpha_.resize(layer.out_dim_);
    layer.bias_ = bias;
    if (bias.size() != layer.out_dim_ || layer.in_dim_ == 0)
        return layer;
    for (std::size_t o = 0; o < layer.out_dim_; ++o) {
        const float *row = w.row(o);
        const float alpha = std::fabs(row[0]);
        // `> 0` also rejects NaN rows (every comparison is false).
        if (!(alpha > 0.0f))
            return layer;
        std::uint64_t *dst = layer.signs_.data() + o * layer.words_;
        for (std::size_t i = 0; i < layer.in_dim_; ++i) {
            if (row[i] == alpha)
                dst[i / 64] |= std::uint64_t{1} << (i % 64);
            else if (row[i] != -alpha)
                return layer; // row is not uniform +-alpha
        }
        layer.alpha_[o] = alpha;
    }
    layer.packable_ = true;
    return layer;
}

namespace {

/** Integer dot of neuron @p o the slow way: one sign bit at a time,
 *  accumulating +-1 per active input — the element-by-element oracle
 *  the packed backend must match bit for bit. */
int
scalarDot(const PackedLayer &layer, std::size_t o,
          const std::uint64_t *x, std::size_t bits)
{
    const std::uint64_t *s = layer.signRow(o);
    int acc = 0;
    for (std::size_t i = 0; i < bits; ++i) {
        if (x[i / 64] >> (i % 64) & 1)
            acc += (s[i / 64] >> (i % 64) & 1) ? 1 : -1;
    }
    return acc;
}

/** Dots of sign row @p s with every row of @p x: 2 * popcount(x_b &
 *  s) - active_b. */
using DotBatchFn = void (*)(const std::uint64_t *s,
                            const PackedActivations &x, int *dots);

[[gnu::always_inline]] inline void
dotBatchScalar(const std::uint64_t *s, const PackedActivations &x,
               int *dots)
{
    for (std::size_t b = 0; b < x.batch; ++b) {
        const std::uint64_t *xb = x.row(b);
        int pos = 0;
        for (std::size_t w = 0; w < x.words; ++w)
            pos += __builtin_popcountll(xb[w] & s[w]);
        dots[b] = 2 * pos - x.active[b];
    }
}

void
dotBatchDefault(const std::uint64_t *s, const PackedActivations &x,
                int *dots)
{
    dotBatchScalar(s, x, dots);
}

#ifdef SUSHI_X86_KERNELS
SUSHI_TARGET_POPCNT void
dotBatchPopcnt(const std::uint64_t *s, const PackedActivations &x,
               int *dots)
{
    dotBatchScalar(s, x, dots);
}
#endif

/** The dot loop for this CPU, picked once per process. */
DotBatchFn
dotBatch()
{
    static const DotBatchFn fn =
#ifdef SUSHI_X86_KERNELS
        hostIsa() >= Isa::Popcnt ? dotBatchPopcnt :
#endif
                                 dotBatchDefault;
    return fn;
}

} // namespace

void
effectiveForward(const PackedLayer &layer, const PackedActivations &x,
                 Tensor &out, Backend backend, int threads)
{
    sushi_assert(layer.packable());
    sushi_assert(x.bits == layer.inDim());
    sushi_assert(out.rows() == x.batch &&
                 out.cols() == layer.outDim());
    const auto &alpha = layer.alpha();
    const auto &bias = layer.bias();
    sushi_assert(alpha.size() == layer.outDim());
    const std::size_t batch = x.batch;
    // One shared epilogue: both backends produce the identical
    // float, so packed == scalar bitwise.
    auto emit = [&](std::size_t o, std::size_t b, int d) {
        out.at(b, o) = bias[o] + alpha[o] * static_cast<float>(d);
    };
    ParallelOptions opts;
    opts.grain = 16;
    opts.max_workers =
        threads <= 0 ? 0 : static_cast<unsigned>(threads);
    const DotBatchFn dot_batch = dotBatch();
    // Batch-major: neurons split across the pool, each sign row
    // streamed over the whole batch.
    parallelFor(
        layer.outDim(),
        [&](std::size_t o0, std::size_t o1) {
            if (backend == Backend::Packed) {
                std::vector<int> dots(batch);
                for (std::size_t o = o0; o < o1; ++o) {
                    dot_batch(layer.signRow(o), x, dots.data());
                    for (std::size_t b = 0; b < batch; ++b)
                        emit(o, b, dots[b]);
                }
                return;
            }
            for (std::size_t o = o0; o < o1; ++o)
                for (std::size_t b = 0; b < batch; ++b)
                    emit(o, b, scalarDot(layer, o, x.row(b), x.bits));
        },
        opts);
}

} // namespace sushi::snn::packed
