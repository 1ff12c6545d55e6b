/**
 * @file
 * The builds of the chip's fast layer-step kernel and the dispatch
 * that picks one. SushiChip::stepLayer calls the picked build once
 * per layer step; tests pin a chip to each build the CPU runs and
 * fuzz it against the Npe oracle. Not part of the chip's interface:
 * a chip always runs selected() unless a test pins it.
 */

#ifndef SUSHI_CHIP_KERNEL_HH
#define SUSHI_CHIP_KERNEL_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/cpu.hh"
#include "compiler/compile.hh"

namespace sushi::chip {

class SushiChip;

namespace kernel {

/** Multi-pulse inputs: (scheduled position, pulses beyond the first). */
using Extras = std::vector<std::pair<int, std::uint64_t>>;

/** Per-chip buffers reused across layer steps (a chip is driven by
 *  one thread at a time: its replica's lock holder). */
struct Scratch
{
    std::vector<std::uint64_t> act_bits;      ///< scheduled bitset
    std::vector<std::uint64_t> bucket_pulses; ///< input pulses
    Extras extras; ///< multi-pulse inputs, in scheduled order
    /// Each bucket's span of act_bits, head and tail masks applied,
    /// bucket after bucket (vector build only).
    std::vector<std::uint64_t> bucket_acts;
};

/** Tallies of one layer step. */
struct LayerCounts
{
    std::uint64_t active_inputs = 0;
    std::uint64_t syn_ops = 0;
    std::uint64_t underflow = 0;
    std::uint64_t multi = 0;
};

/**
 * One layer step of the fast path: pack @p act (in_dim pulse counts,
 * original input order) into @p scratch, then write every enabled
 * neuron's output pulses to @p out (zeroed by the caller) for a
 * K-SC counter, K = @p k_bits.
 */
using StepFn = LayerCounts (*)(const compiler::CompiledLayer &layer,
                               const std::uint16_t *act, int k_bits,
                               Scratch &scratch, std::uint16_t *out);

/** One build of the kernel. */
struct Variant
{
    const char *name; ///< "default", "popcnt" or "avx512"
    Isa isa;          ///< the level the build needs
    StepFn step;
};

/** Every build compiled in, lowest level first. */
std::span<const Variant> variants();

/** The highest build hostIsa() runs, picked once per process. */
const Variant &selected();

/** Make @p chip's fast path run @p v (which the CPU must run). */
void pin(SushiChip &chip, const Variant &v);

} // namespace kernel
} // namespace sushi::chip

#endif // SUSHI_CHIP_KERNEL_HH
