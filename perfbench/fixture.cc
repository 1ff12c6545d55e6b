/**
 * @file
 * The shared trained fixture: synth digits -> binarization-aware
 * training -> XNOR binarize -> compile -> Poisson-encode the held-out
 * set, every step seeded from the run's --seed.
 */

#include <algorithm>
#include <thread>

#include "bench.hh"
#include "compiler/cost_model.hh"
#include "data/synth_digits.hh"
#include "snn/train.hh"

namespace perfbench {

using namespace sushi;

namespace {

/**
 * Seed of the training data, weight init and shuffle order. It is
 * fixed, so every run serves the same trained model and --seed varies
 * the inputs the model sees, not the model under test: seed-to-seed
 * spread then measures the host, not one training run against
 * another.
 */
constexpr std::uint64_t kModelSeed = 42;
constexpr std::size_t kTrain = 2700;
/** Held-out samples drawn from --seed. */
constexpr std::size_t kHeldOut = 1000;
constexpr int kSteps = 5;

compiler::ChipConfig
chipConfig()
{
    compiler::ChipConfig chip;
    chip.n = 16;
    chip.sc_per_npe = 10;
    return chip;
}

/**
 * The flagship's compile options: cost-aware, against a per-chip JJ
 * cap of the fabric plus the biggest layer. The whole network
 * overflows that cap, so the planner must split it into stages.
 */
compiler::DriverOptions
flagshipOptions(const snn::BinarySnn &net,
                const compiler::ChipConfig &chip)
{
    compiler::CostModel cost(chip.n, chip.sc_per_npe);
    long biggest = 0;
    for (const auto &layer : net.layers())
        biggest = std::max(biggest, cost.layerCost(layer).totalJjs());
    compiler::DriverOptions o = compiler::DriverOptions::costAware();
    o.budget = compiler::ChipBudget::tableDefaults(chip.n,
                                                   chip.sc_per_npe);
    o.budget.jj_cap = cost.fabricJjs() + biggest;
    return o;
}

} // namespace

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t k)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (k + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

int
hostThreads()
{
    return static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
}

Fixture
buildFixture(Net net, std::uint64_t seed, Tracer &tr)
{
    Fixture fx;
    Scope setup(tr, "bench", "setup");

    auto t0 = Clock::now();
    data::Dataset test, train;
    {
        Scope s(tr, "data", "data::synthDigits");
        train = data::synthDigits(kTrain, subSeed(kModelSeed, 0));
        test = data::synthDigits(kHeldOut, subSeed(seed, 0));
    }
    fx.times.synth = secondsSince(t0);

    snn::SnnConfig cfg;
    cfg.hidden = net == Net::Digits ? 96 : 800;
    cfg.t_steps = kSteps;
    cfg.stateless = true;
    snn::SnnMlp mlp(cfg, subSeed(kModelSeed, 1));
    t0 = Clock::now();
    {
        Scope s(tr, "snn", "snn::Trainer::fit");
        snn::TrainConfig tc;
        tc.epochs = net == Net::Digits ? 2 : 1;
        tc.shuffle_seed = subSeed(kModelSeed, 2);
        tc.encoder_seed = subSeed(kModelSeed, 3);
        snn::Trainer(mlp, tc).fit(train.images, train.labels);
    }
    fx.times.train = secondsSince(t0);

    t0 = Clock::now();
    snn::BinarySnn bin = [&] {
        Scope s(tr, "snn", "snn::BinarySnn::fromFloat");
        return snn::BinarySnn::fromFloat(mlp);
    }();
    fx.times.binarize = secondsSince(t0);

    t0 = Clock::now();
    {
        Scope s(tr, "compiler", "engine::CompiledModel::compile");
        const auto chip = chipConfig();
        if (net == Net::Digits) {
            fx.model = engine::CompiledModel::compile(std::move(bin),
                                                      chip);
        } else {
            const auto opts = flagshipOptions(bin, chip);
            fx.model = engine::CompiledModel::compile(std::move(bin),
                                                      chip, opts);
        }
    }
    fx.times.compile = secondsSince(t0);

    t0 = Clock::now();
    {
        Scope s(tr, "data", "engine::encodeSamples");
        fx.samples =
            engine::encodeSamples(test.images, kSteps, subSeed(seed, 4));
    }
    fx.times.encode = secondsSince(t0);
    fx.labels = test.labels;
    return fx;
}

std::shared_ptr<const engine::CompiledModel>
compileUnbounded(const Fixture &fx)
{
    return engine::CompiledModel::compile(fx.model->network(),
                                          chipConfig());
}

bool
sameModel(const Fixture &a, const Fixture &b)
{
    const auto &la = a.model->network().layers();
    const auto &lb = b.model->network().layers();
    if (la.size() != lb.size() || a.samples != b.samples ||
        a.labels != b.labels ||
        a.model->fingerprint() != b.model->fingerprint())
        return false;
    for (std::size_t l = 0; l < la.size(); ++l)
        if (la[l].weights != lb[l].weights ||
            la[l].thresholds != lb[l].thresholds)
            return false;
    return true;
}

Reference
referenceRun(const Fixture &fx, const engine::EngineConfig &cfg)
{
    engine::InferenceEngine eng(fx.model, cfg);
    Reference ref;
    std::vector<const engine::Sample *> ptrs;
    for (const auto &s : fx.samples)
        ptrs.push_back(&s);
    auto rr = eng.runOnReplica(0, ptrs.data(), ptrs.size());
    ref.results = std::move(rr.results);
    ref.per_sample = std::move(rr.per_sample);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < ref.results.size(); ++i) {
        ref.merged.accumulate(ref.per_sample[i]);
        hits += ref.results[i].prediction == fx.labels[i];
    }
    ref.merged.dynamic_energy_j =
        chip::dynamicEnergyJ(ref.merged.synaptic_ops);
    ref.accuracy = static_cast<double>(hits) /
                   static_cast<double>(ref.results.size());
    return ref;
}

bool
sameResults(const std::vector<engine::SampleResult> &a,
            const std::vector<engine::SampleResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].counts != b[i].counts ||
            a[i].prediction != b[i].prediction)
            return false;
    return true;
}

} // namespace perfbench
