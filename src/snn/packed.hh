/**
 * @file
 * Bit-packed XNOR/popcount forward for the binarization-aware
 * trainer's +-alpha layers (SnnMlp::forwardWith; the
 * `binarized_fc_layer` trick).
 *
 * An XNOR-Net effective weight row (every entry +-alpha_o) is stored
 * as alpha_o plus sign bits in `uint64_t` lanes (bit = 1 <=> weight
 * +alpha); a binary activation row packs the same way. Because the
 * product over binary activations is
 *
 *     B . x  =  (+1 matches) - (-1 matches)
 *            =  2 * popcount(x & signs) - popcount(x)
 *
 * one 64-lane AND + popcount replaces 64 scalar multiply-adds. The
 * kernel is batch-major: the outer loop walks output neurons, so
 * each packed weight row is fetched once and streamed across the
 * whole batch.
 *
 * effectiveForward has two backends computing *bit-identical*
 * results:
 *
 *  - Backend::Scalar — the oracle. Walks the sign bits one element
 *    at a time and accumulates the integer dot product.
 *  - Backend::Packed — the XNOR/popcount fast path the trainer runs.
 *
 * Both backends share one float epilogue (`bias + alpha * dot`) and
 * the dot product is exact integer arithmetic in either, so packed
 * vs. scalar equality is bitwise — the property the differential
 * fuzzer in tests/test_packed_snn.cc hammers, together with an
 * independent reference taken straight off the signs.
 *
 * Tail handling: for in_dim not a multiple of 64 the final lane's
 * high bits are zero in both the packed weights and every packed
 * activation row, so they never contribute to popcounts. Activation
 * packing is the single place that enforces the invariant.
 */

#ifndef SUSHI_SNN_PACKED_HH
#define SUSHI_SNN_PACKED_HH

#include <cstdint>
#include <vector>

#include "snn/tensor.hh"

namespace sushi::snn::packed {

/** Kernel implementation selector. */
enum class Backend
{
    Scalar, ///< element-by-element integer dot (the oracle)
    Packed, ///< XNOR + popcount over uint64_t lanes
};

/** Lanes needed for @p bits packed 64 per word. */
inline std::size_t
laneWords(std::size_t bits)
{
    return (bits + 63) / 64;
}

/**
 * A batch of binary activation rows packed into uint64_t lanes,
 * bit i of row b = (activation i of sample b != 0). Tail bits past
 * `bits` are zero. `active[b]` caches popcount(row b) — the term
 * that turns a popcount into a signed dot product.
 */
struct PackedActivations
{
    std::size_t batch = 0;
    std::size_t bits = 0;
    std::size_t words = 0;
    std::vector<std::uint64_t> lanes; ///< [batch x words]
    std::vector<std::int32_t> active; ///< per-row set-bit count

    const std::uint64_t *row(std::size_t b) const
    {
        return lanes.data() + b * words;
    }
};

/**
 * Pack a [batch x bits] float tensor whose entries are exactly 0.0f
 * or 1.0f (spike frames).
 * @return false (out unspecified) if any entry is neither — the
 *         caller must fall back to the dense float path.
 */
bool packFloatRows(const Tensor &x, PackedActivations &out);

/**
 * One fully-connected layer of XNOR-Net effective weights: {-1, +1}
 * signs packed as bits plus the float epilogue alpha/bias.
 *
 * Construction is *validating*: weights without the exact +-alpha
 * structure yield packable() == false and the caller keeps its dense
 * float path — a non-uniform row or a NaN can never silently change
 * results.
 */
class PackedLayer
{
  public:
    PackedLayer() = default;

    /**
     * Build from XNOR-Net effective float weights: every row must be
     * exactly +-alpha_o with alpha_o > 0 (binaryEffectiveWeights
     * output). packable() == false otherwise.
     */
    static PackedLayer fromEffective(const Tensor &w,
                                     const std::vector<float> &bias);

    bool packable() const { return packable_; }
    std::size_t inDim() const { return in_dim_; }
    std::size_t outDim() const { return out_dim_; }
    std::size_t words() const { return words_; }

    /** Sign lanes of output neuron @p o (bit = 1 <=> weight +1). */
    const std::uint64_t *signRow(std::size_t o) const
    {
        return signs_.data() + o * words_;
    }

    /** Per-row alpha / bias epilogue. */
    const std::vector<float> &alpha() const { return alpha_; }
    const std::vector<float> &bias() const { return bias_; }

  private:
    std::size_t in_dim_ = 0;
    std::size_t out_dim_ = 0;
    std::size_t words_ = 0;
    bool packable_ = false;
    std::vector<std::uint64_t> signs_; ///< [out x words], tail zero
    std::vector<float> alpha_;
    std::vector<float> bias_;
};

/**
 * Float binary-dense forward for the binarization-aware trainer:
 * out(b, o) = bias_o + alpha_o * (B_o . x_b). Layer must be
 * packable(); out must be [batch x outDim]. Batch-major; optionally
 * threaded over output neurons via common/parallel (@p threads <= 0
 * uses the shared pool width, 1 forces sequential). Results are
 * bit-identical across backends and thread counts.
 */
void effectiveForward(const PackedLayer &layer,
                      const PackedActivations &x, Tensor &out,
                      Backend backend, int threads = 0);

} // namespace sushi::snn::packed

#endif // SUSHI_SNN_PACKED_HH
