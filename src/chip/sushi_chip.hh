/**
 * @file
 * The behavioural SUSHI chip model: executes a compiled SSNN on the
 * NPE mesh exactly as the hardware would — per time step, per output
 * group, per bucket, inhibitory pass then excitatory pass — using
 * the bit-exact NPE counter semantics (including wrap-around borrow
 * and carry pulses, the physical failure mode bucketing exists to
 * control).
 *
 * The gate-level counterpart for small configurations lives in
 * chip/gate_sim; tests assert pulse-level agreement between the two,
 * mirroring the paper's chip-vs-simulation validation (Sec. 6.2).
 */

#ifndef SUSHI_CHIP_SUSHI_CHIP_HH
#define SUSHI_CHIP_SUSHI_CHIP_HH

#include <cstdint>
#include <vector>

#include "chip/kernel.hh"
#include "compiler/compile.hh"
#include "npe/npe.hh"

namespace sushi::chip {

/** Aggregate statistics of one inference run. */
struct InferenceStats
{
    std::uint64_t frames = 0;        ///< images processed
    std::uint64_t time_steps = 0;    ///< SNN steps executed
    std::uint64_t input_pulses = 0;  ///< pulses fed to NPEs
    std::uint64_t synaptic_ops = 0;  ///< pulses through synapses
    std::uint64_t output_spikes = 0; ///< final-layer output pulses
    std::uint64_t underflow_spikes = 0; ///< spurious borrow pulses
    std::uint64_t multi_fires = 0;   ///< neuron-steps with >1 spike
    std::uint64_t reload_events = 0; ///< cross-structure reloads

    /// @name Degraded-mode (failed-NPE) reporting.
    /// @{
    std::uint64_t failed_npes = 0;       ///< failed output slots
    std::uint64_t remapped_neurons = 0;  ///< neuron-steps served by a
                                         ///< remap host NPE
    std::uint64_t degraded_passes = 0;   ///< extra group passes run
    /// @}

    /// @name Compile-plan gauges (realizability headroom).
    /// Snapshot of the executed plan's compiler diagnostics, set by
    /// the chip from `CompiledNetwork::budget` each network step so
    /// serving metrics expose how close the resident model sits to
    /// the chip's Table 2 caps. Gauges, not counters: accumulate()
    /// keeps the maximum; stage merges sum the per-chip neuron /
    /// reload counts and keep the worst utilisation.
    /// @{
    std::uint64_t disabled_neurons = 0; ///< compile-disabled neurons
    std::uint64_t plan_reloads = 0;  ///< compiled reloads per step
    double jj_utilisation = 0.0;     ///< worst chip JJ cap fraction
    double area_utilisation = 0.0;   ///< worst chip area cap fraction
    /// @}

    /// @name NoC transport (modelled mesh fabric; EngineConfig::noc
    /// multi-chip runs only — all zero under the ideal transport).
    /// The engine folds one NocSampleStats per sample into these
    /// after the stage-pipeline merge; chip code never sets them.
    /// accumulate() sums the counters and keeps the utilisation /
    /// step-load gauges' maxima; noc_cut_flits merges element-wise
    /// (index = plan cut index).
    /// @{
    std::uint64_t noc_packets = 0; ///< spike packets injected
    std::uint64_t noc_flits = 0;   ///< flits injected
    std::uint64_t noc_flit_hops = 0; ///< flits x links traversed
    std::uint64_t noc_hol_stall_cycles = 0; ///< head-of-line waits
    std::uint64_t noc_backpressure_stalls = 0; ///< NIC credit waits
    std::uint64_t noc_latency_cycles = 0; ///< added fabric cycles
    std::uint64_t noc_max_step_link_flits = 0; ///< worst step link
                                               ///< load (gauge)
    double noc_latency_ps = 0.0; ///< added transport latency
    double noc_max_link_utilisation = 0.0; ///< worst link busy
                                           ///< fraction (gauge)
    std::vector<std::uint64_t> noc_cut_flits; ///< flits per plan cut
    /// @}

    double est_time_ps = 0.0;        ///< modelled wall time
    double reload_time_ps = 0.0;     ///< serialised reload time
    double dynamic_energy_j = 0.0;   ///< switching energy

    void reset() { *this = InferenceStats{}; }

    /**
     * Fold another stats record into this one. Counters and time /
     * energy totals add; failed_npes and the compile-plan fields are
     * gauges (current failed slots / plan shape), so the maximum is
     * kept. Addition order matters for the floating-point fields:
     * merging per-sample records in sample order gives byte-identical
     * totals regardless of how the samples were sharded across
     * replicas or threads.
     */
    void accumulate(const InferenceStats &other);

    /**
     * Fold the stats of another *pipeline stage of the same sample*
     * into this one (multi-chip plans: one record per stage chip).
     * Unlike accumulate, frames and time_steps take the maximum —
     * every stage saw the same frames — while the per-chip plan
     * diagnostics (disabled_neurons, plan_reloads) add up across the
     * plan's chips and utilisation keeps the worst chip. Energy is
     * recomputed from the merged synaptic_ops by the caller's
     * dynamicEnergyJ so stage merge order cannot perturb it.
     */
    void accumulatePipeline(const InferenceStats &stage);

    /** True if any inference ran with failed NPEs remapped. */
    bool degraded() const { return remapped_neurons > 0; }
};

/** Switching-energy model shared by chip and engine: every synaptic
 *  op flips ~30 JJs along the synapse->NPE path at ~2e-19 J each. */
double dynamicEnergyJ(std::uint64_t synaptic_ops);

/** Per-step activation pulses flowing between layers. */
using PulseVector = std::vector<std::uint16_t>;

/** The behavioural chip. */
class SushiChip
{
  public:
    explicit SushiChip(const compiler::ChipConfig &cfg);

    const compiler::ChipConfig &config() const { return cfg_; }

    /**
     * Execute one layer for one time step.
     * @param layer    compiled layer (for this chip's mesh width n)
     * @param blayer   the binarized weights it was compiled from
     * @param act      input pulse counts (original index space)
     * @return output pulse counts per neuron (0, 1, or more — extra
     *         pulses are physical wrap artefacts, counted in stats)
     */
    PulseVector stepLayer(const compiler::CompiledLayer &layer,
                          const snn::BinaryLayer &blayer,
                          const PulseVector &act);

    /**
     * Full rate-coded inference of a compiled network over binary
     * input frames (one per time step). Composed from beginFrame /
     * stepNetwork / countOutputSpikes / finishRun below, so a
     * multi-chip engine can chain several chips per time step with
     * the same arithmetic.
     * @return output pulse counts summed over time steps
     */
    std::vector<int>
    inferCounts(const compiler::CompiledNetwork &net,
                const std::vector<std::vector<std::uint8_t>> &frames);

    /// @name Staged execution (multi-chip plans).
    /// One sample = beginFrame once, then per time step a stepNetwork
    /// per stage chip (chained through the activation vector), then
    /// finishRun on every chip. inferCounts is exactly this sequence
    /// on a single chip.
    /// @{

    /** Account the start of one input sample. */
    void beginFrame() { ++stats_.frames; }

    /**
     * Run every layer of @p net for one time step: the full chip
     * pass of one stage. Also refreshes the compile-plan gauges in
     * stats() from the network's budget report. @p act is taken by
     * value: move the frame in to step it without a copy.
     */
    PulseVector stepNetwork(const compiler::CompiledNetwork &net,
                            PulseVector act);

    /** Account final-layer output pulses. */
    void countOutputSpikes(const PulseVector &act);

    /** Recompute the cumulative dynamic energy from synaptic_ops. */
    void finishRun();

    /// @}

    /** Argmax label from inferCounts. */
    int predict(const compiler::CompiledNetwork &net,
                const std::vector<std::vector<std::uint8_t>> &frames);

    /** Statistics accumulated since the last reset. */
    const InferenceStats &stats() const { return stats_; }

    /** Clear accumulated statistics; the failed_npes gauge keeps
     *  tracking the chip's current failure state. */
    void resetStats();

    /// @name Packed-kernel selection.
    /// The fast path packs the step's activations once into a
    /// bitset over scheduled positions, scattering each active input
    /// to CompiledLayer::position. It then counts each (neuron,
    /// bucket) pair's excitatory pulses by popcount over the
    /// bucket's word span against the compiled sign row
    /// (CompiledLayer::signRow, bucket_spans; inhibitory = the
    /// bucket's input pulses minus that). The K-SC counter is
    /// evaluated as an unbounded membrane w: it emits one spike each
    /// time w crosses a multiple of 2^K, upwards (carry) or downwards
    /// (borrow), so each pass costs a shift and a subtraction (the
    /// exact recurrence Npe::addPulses implements, because preloads
    /// are below 2^K). The kernel has three builds (chip/kernel.hh):
    /// "default" and "popcnt" compile one scalar neuron loop without
    /// and with the POPCNT instruction; on x86-64 "avx512" packs 32
    /// inputs per lane test and counts eight neurons per group, one
    /// vpopcntq accumulator per neuron over the same row-major sign
    /// rows, with the recurrence in int64 lanes. The best build the
    /// CPU runs is picked once per process (hostIsa) and called once
    /// per layer step. The oracle counts both classes with a scalar
    /// walk of the schedule over the binarized weights and drives an
    /// Npe object, so it shares neither the sign rows nor the
    /// counter arithmetic. Pulse outputs and every InferenceStats
    /// counter are bit-identical on every path;
    /// tests/test_packed_snn.cc fuzzes each build against the
    /// oracle.
    /// @{

    /** Force the fast (true) or oracle (false) kernel on this chip. */
    void setPackedKernels(bool on) { packed_kernels_ = on; }

    /** The kernel stepLayer will use right now. */
    bool packedKernels() const { return packed_kernels_; }

    /// @}

    /**
     * Return the chip to its just-constructed state: statistics
     * cleared and every NPE slot healthy. Replica pools call this
     * between batches so a reused chip is indistinguishable from a
     * fresh one.
     */
    void reset();

    /// @name Degraded mode (Sec. 6.2 failure tolerance).
    /// Marking an output-NPE slot failed remaps its neurons onto the
    /// healthy slots (compiler::planNpeRemap): inference results are
    /// bit-identical, but extra serialized passes and configuration
    /// reloads are charged and reported in InferenceStats.
    /// @{

    /** Mark output-NPE slot @p slot (0..n-1) as failed. */
    void markNpeFailed(int slot);

    /** Restore every slot to healthy. */
    void clearFailedNpes();

    /** Per-slot failure flags (size n). */
    const std::vector<std::uint8_t> &failedNpes() const
    {
        return failed_npes_;
    }

    /** The active remap plan (identity when nothing failed). */
    const compiler::NpeRemap &remapPlan() const { return remap_; }

    /// @}

  private:
    compiler::ChipConfig cfg_;
    InferenceStats stats_;
    std::vector<std::uint8_t> failed_npes_;
    compiler::NpeRemap remap_;
    bool packed_kernels_ = true; ///< false: the Npe oracle
    double pulse_ps_; ///< modelled time per streamed pulse
    const kernel::Variant *kernel_; ///< the fast path's build
    kernel::Scratch scratch_;       ///< fast-kernel buffers

    friend void kernel::pin(SushiChip &chip, const kernel::Variant &v);
};

} // namespace sushi::chip

#endif // SUSHI_CHIP_SUSHI_CHIP_HH
