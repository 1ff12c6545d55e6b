/**
 * @file
 * The SSNN-to-chip compiler: turns a binarized network into the
 * per-layer execution plan of Fig. 12 (slices, schedules, preloads,
 * reload counts) consumed by the SUSHI chip model.
 */

#ifndef SUSHI_COMPILER_COMPILE_HH
#define SUSHI_COMPILER_COMPILE_HH

#include <cstdint>
#include <vector>

#include "compiler/bitslice.hh"
#include "compiler/bucketing.hh"
#include "compiler/budget.hh"
#include "snn/binarize.hh"
#include "snn/packed.hh"

namespace sushi::compiler {

/** The target chip geometry. */
struct ChipConfig
{
    /** Mesh dimension: N x N crosspoints, 2N NPEs. */
    int n = 16;
    /** SCs per NPE. */
    int sc_per_npe = 10;
    /** Bucketing/reordering configuration. */
    BucketingConfig bucketing;
};

/**
 * The words of a scheduled bitset (a sign row or the chip's packed
 * activations) that one bucket covers. The chip counts a bucket as
 * popcount(w[first] & head_mask) + the full words strictly between
 * + popcount(w[last] & tail_mask). A bucket inside one word has
 * first == last, the whole range in head_mask and a zero tail_mask,
 * so the same sum holds without a boundary test.
 */
struct BucketSpan
{
    std::uint32_t first_word;
    std::uint32_t last_word;
    std::uint64_t head_mask;
    std::uint64_t tail_mask;
};

/** One compiled layer. */
struct CompiledLayer
{
    LayerSlices slices;
    LayerSchedule schedule;
    StateRangeReport range;
    long switch_reloads; ///< cross-structure reload events per step
    /** Modelled configuration-reload time per step on a healthy
     *  chip of the compile geometry (ps). */
    double reload_ps = 0.0;

    /**
     * Per-output-neuron counter preload: 2^K - theta', where theta'
     * is the effective positive threshold after bias pulses.
     */
    std::vector<std::uint64_t> preload;
    /** Excitatory bias pulses delivered at step start (handles
     *  thresholds <= 0, which must always be able to fire). */
    std::vector<int> bias_pulses;
    /** Neurons whose thresholds exceed the state budget: they can
     *  never fire and are skipped (counted for diagnostics). */
    std::vector<std::uint8_t> disabled;

    /**
     * Synapse sign bits, one row of laneWords(in_dim) words per
     * output neuron ([out x words], flat) — the binarized network's
     * only sign-bit buffer. Bit 1 <=> the weight is >= 0
     * (excitatory; zero weights included), 64 per word, tail bits
     * zero. Bits are in *scheduled* order: bit k of a row is the
     * sign of input schedule.order[k]. Every scheduled input is in
     * exactly one class, so the chip derives a bucket's inhibitory
     * count as its active inputs minus the excitatory popcount.
     */
    std::vector<std::uint64_t> signs;

    /** Inverse of schedule.order: input i sits at scheduled bit
     *  position[i]. The chip scatters its activations through it
     *  while scanning them in original order. */
    std::vector<int> position;
    /** Word span of each schedule.buckets entry, same index. */
    std::vector<BucketSpan> bucket_spans;

    /** Words per sign row. */
    std::size_t signWords() const
    {
        return snn::packed::laneWords(schedule.order.size());
    }

    /** Sign row of output neuron @p o. */
    const std::uint64_t *signRow(std::size_t o) const
    {
        return signs.data() + o * signWords();
    }
};

/** A fully compiled network. */
struct CompiledNetwork
{
    ChipConfig chip;
    const snn::BinarySnn *net = nullptr;
    std::vector<CompiledLayer> layers;

    /** Budget analysis from the driver's cost model: fabric +
     *  resident model cost against the per-chip caps. Always
     *  computed; only enforced by budget-enforcing presets. */
    BudgetReport budget;
    /** Cached diagnostics (== disabledNeurons()/totalReloads()),
     *  filled at compile so the chip can surface them per step in
     *  O(1). */
    long disabled_count = 0;
    long plan_reloads = 0;

    /** Total cross-structure reload events per time step. */
    long totalReloads() const;

    /** Number of disabled (untrainable-threshold) neurons. */
    long disabledNeurons() const;
};

/**
 * Compile a binarized network for a chip — the *legacy preset* of
 * the pass-based `CompilerDriver` (driver.hh): single chip, budget
 * reported but not enforced, paper-rule schedule selection.
 * Bit-identical to the historical single-shot compiler. Throws
 * CompileError{BadChipConfig} on an invalid geometry.
 */
CompiledNetwork compileNetwork(const snn::BinarySnn &net,
                               const ChipConfig &chip);

/**
 * Degraded-mode plan for a mesh with failed output-NPE slots.
 *
 * Output neurons are assigned round-robin to the N output NPEs of a
 * group (neuron o sits on slot o mod N). When a slot's NPE has
 * failed (flux trap, dead junction), its neurons are time-multiplexed
 * onto the healthy slots in extra serialized passes per output group:
 * each extra pass re-streams the input slice and needs its own
 * crosspoint configuration batch (the reload-awareness the chip's
 * timing model charges for).
 */
struct NpeRemap
{
    /** Host slot per output slot; host[s] == s for healthy slots. */
    std::vector<int> host;
    /** Number of failed output slots. */
    int failed = 0;
    /** Extra serialized passes needed per output group,
     *  ceil(failed / healthy). */
    int extra_passes = 0;
};

/**
 * Plan the remap for an @p n wide mesh given @p failed_slots
 * (size n, nonzero = failed). Fatal if every slot has failed — a
 * fully dead mesh cannot be degraded around.
 */
NpeRemap planNpeRemap(int n,
                      const std::vector<std::uint8_t> &failed_slots);

} // namespace sushi::compiler

#endif // SUSHI_COMPILER_COMPILE_HH
