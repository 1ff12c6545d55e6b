/**
 * @file
 * The shared compiled-model artifact.
 *
 * Compiling a binarized SSNN (bit-slicing, bucketing, scheduling,
 * preload computation) is pure and deterministic in the network and
 * chip geometry, so a replica pool must do it exactly once: every
 * SushiChip replica executes the same immutable CompiledModel,
 * handed out as shared_ptr<const CompiledModel>.
 *
 * The artifact is always a compiler::MultiChipPlan. The legacy
 * preset and every model that fits one chip yield a single-stage
 * plan; a budget-enforcing preset may split the model across
 * stageCount() > 1 chips. Each stage is an immutable per-chip
 * CompiledNetwork compiled against its own copy of its layer range
 * (the plan's ChipStage owns the subnet), so the artifact is
 * self-contained. The engine pins each stage to one chip of a
 * replica group and chains them per time step.
 */

#ifndef SUSHI_ENGINE_COMPILED_MODEL_HH
#define SUSHI_ENGINE_COMPILED_MODEL_HH

#include <cstdint>
#include <memory>

#include "compiler/compile.hh"
#include "compiler/driver.hh"
#include "snn/binarize.hh"

namespace sushi::engine {

/** An immutable, shareable compile artifact. */
class CompiledModel
{
  public:
    /** Compile @p net for @p chip with the legacy single-chip
     *  driver preset (always one stage). */
    static std::shared_ptr<const CompiledModel>
    compile(snn::BinarySnn net, const compiler::ChipConfig &chip);

    /**
     * Compile through an explicit driver preset. A budget-enforcing
     * preset may split the model into a multi-chip plan; throws
     * compiler::CompileError when the model cannot be realized.
     */
    static std::shared_ptr<const CompiledModel>
    compile(snn::BinarySnn net, const compiler::ChipConfig &chip,
            const compiler::DriverOptions &options);

    CompiledModel(const CompiledModel &) = delete;
    CompiledModel &operator=(const CompiledModel &) = delete;

    const snn::BinarySnn &network() const { return net_; }

    /** The single-chip artifact; asserts stageCount() == 1. */
    const compiler::CompiledNetwork &compiled() const;

    const compiler::ChipConfig &chip() const { return plan_.chip; }

    /** Chips the plan needs (1 for every legacy-compiled model). */
    int stageCount() const { return plan_.numChips(); }
    bool multiChip() const { return stageCount() > 1; }

    /** Compiled artifact of stage @p s (0 <= s < stageCount()). */
    const compiler::CompiledNetwork &stageNet(int s) const;

    /** The compiled plan (never null). */
    const compiler::MultiChipPlan *plan() const { return &plan_; }

    /** Content fingerprint of (network, chip config, preset). */
    std::uint64_t fingerprint() const { return fingerprint_; }

    /**
     * Fingerprint without compiling. FNV-1a over the binarized
     * weights, thresholds, step count and chip geometry.
     */
    static std::uint64_t
    fingerprintOf(const snn::BinarySnn &net,
                  const compiler::ChipConfig &chip);

    /** Fingerprint salted with the driver preset. */
    static std::uint64_t
    fingerprintOf(const snn::BinarySnn &net,
                  const compiler::ChipConfig &chip,
                  const compiler::DriverOptions &options);

  private:
    struct Key
    {
    }; // make_shared needs a public ctor; Key keeps it internal

  public:
    CompiledModel(Key, snn::BinarySnn net,
                  const compiler::ChipConfig &chip,
                  const compiler::DriverOptions &options);

  private:
    snn::BinarySnn net_;
    compiler::MultiChipPlan plan_;
    std::uint64_t fingerprint_;
};

} // namespace sushi::engine

#endif // SUSHI_ENGINE_COMPILED_MODEL_HH
