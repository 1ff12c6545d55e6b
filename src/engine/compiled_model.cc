#include "engine/compiled_model.hh"

#include <bit>

#include "common/logging.hh"

namespace sushi::engine {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void
fnv(std::uint64_t &h, std::uint64_t v)
{
    for (int byte = 0; byte < 8; ++byte) {
        h ^= (v >> (8 * byte)) & 0xff;
        h *= kFnvPrime;
    }
}

} // namespace

std::uint64_t
CompiledModel::fingerprintOf(const snn::BinarySnn &net,
                             const compiler::ChipConfig &chip)
{
    std::uint64_t h = kFnvOffset;
    fnv(h, static_cast<std::uint64_t>(net.tSteps()));
    for (const auto &layer : net.layers()) {
        fnv(h, layer.outDim());
        fnv(h, layer.inDim());
        for (const auto &row : layer.weights) {
            // Pack the +-1 weights eight-per-byte-pair into words.
            std::uint64_t word = 0;
            int bits = 0;
            for (std::int8_t w : row) {
                word = (word << 1) | (w > 0 ? 1u : 0u);
                if (++bits == 64) {
                    fnv(h, word);
                    word = 0;
                    bits = 0;
                }
            }
            if (bits) {
                fnv(h, word);
                fnv(h, static_cast<std::uint64_t>(bits));
            }
        }
        for (int theta : layer.thresholds)
            fnv(h, static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(theta)));
    }
    fnv(h, static_cast<std::uint64_t>(chip.n));
    fnv(h, static_cast<std::uint64_t>(chip.sc_per_npe));
    fnv(h, chip.bucketing.bucketing ? 1 : 0);
    fnv(h, chip.bucketing.reorder ? 1 : 0);
    fnv(h, static_cast<std::uint64_t>(chip.bucketing.bucket_size));
    fnv(h, static_cast<std::uint64_t>(chip.bucketing.state_bits));
    fnv(h, static_cast<std::uint64_t>(chip.bucketing.mesh_width));
    return h;
}

std::uint64_t
CompiledModel::fingerprintOf(const snn::BinarySnn &net,
                             const compiler::ChipConfig &chip,
                             const compiler::DriverOptions &options)
{
    std::uint64_t h = fingerprintOf(net, chip);
    fnv(h, options.enforce_budget ? 1 : 0);
    fnv(h, options.score_schedules ? 1 : 0);
    fnv(h, options.allow_multichip ? 1 : 0);
    fnv(h, static_cast<std::uint64_t>(options.max_chips));
    fnv(h, static_cast<std::uint64_t>(options.budget.jj_cap));
    fnv(h, std::bit_cast<std::uint64_t>(
               options.budget.area_cap_mm2));
    return h;
}

CompiledModel::CompiledModel(Key, snn::BinarySnn net,
                             const compiler::ChipConfig &chip,
                             const compiler::DriverOptions &options)
    : net_(std::move(net)),
      plan_(compiler::CompilerDriver(options).compilePlan(net_,
                                                          chip)),
      fingerprint_(fingerprintOf(net_, chip, options))
{
}

const compiler::CompiledNetwork &
CompiledModel::compiled() const
{
    sushi_assert(stageCount() == 1);
    return stageNet(0);
}

const compiler::CompiledNetwork &
CompiledModel::stageNet(int s) const
{
    sushi_assert(s >= 0 && s < stageCount());
    return plan_.stages[static_cast<std::size_t>(s)]->net;
}

std::shared_ptr<const CompiledModel>
CompiledModel::compile(snn::BinarySnn net,
                       const compiler::ChipConfig &chip)
{
    return compile(std::move(net), chip,
                   compiler::DriverOptions::legacy());
}

std::shared_ptr<const CompiledModel>
CompiledModel::compile(snn::BinarySnn net,
                       const compiler::ChipConfig &chip,
                       const compiler::DriverOptions &options)
{
    return std::make_shared<CompiledModel>(Key{}, std::move(net),
                                           chip, options);
}

} // namespace sushi::engine
