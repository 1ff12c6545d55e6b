#include "chip/gate_sim.hh"

#include "common/logging.hh"
#include "sfq/constraints.hh"

namespace sushi::chip {

GateChip::GateChip(sfq::Netlist &net, const compiler::ChipConfig &cfg)
    : net_(net), cfg_(cfg)
{
    fabric::MeshConfig mesh_cfg;
    mesh_cfg.n = cfg.n;
    mesh_cfg.sc_per_npe = cfg.sc_per_npe;
    mesh_cfg.w_max = 1; // binary SSNN: strength is the on/off switch
    mesh_ = std::make_unique<fabric::MeshGate>(net, mesh_cfg);
    gap_ = sfq::safePulseSpacing();
    net.compile(); // whole mesh lowered; runs on the compiled core
}

void
GateChip::setSimThreads(int threads)
{
    threads_ = threads;
    if (threads <= 1) {
        psim_.reset();
        return;
    }
    sfq::ParallelSimulator::Options opts;
    opts.threads = threads;
    psim_ = std::make_unique<sfq::ParallelSimulator>(net_.sim(),
                                                     opts);
}

Tick
GateChip::runSim()
{
    return psim_ != nullptr ? psim_->run() : net_.sim().run();
}

Tick
GateChip::rearmInputNpe(int i, Tick t)
{
    // Fire-per-pulse relay: threshold 1, i.e. preload 2^K - 1 (all
    // SC bits written). Must follow the Sec. 5.2 order: rst, write,
    // set.
    auto &npe = mesh_->inputNpe(i);
    npe.injectRst(t);
    t += gap_;
    for (int b = 0; b < cfg_.sc_per_npe; ++b) {
        npe.injectWrite(b, t);
        t += gap_;
    }
    npe.injectSet1(t);
    return t + gap_;
}

std::vector<std::vector<int>>
GateChip::run(const compiler::CompiledNetwork &cnet,
              const std::vector<std::vector<std::uint8_t>> &frames)
{
    sushi_assert(cnet.net != nullptr);
    sushi_assert(cnet.layers.size() == 1);
    const auto &layer = cnet.layers[0];
    const auto &blayer = cnet.net->layers()[0];
    const int in_dim = static_cast<int>(blayer.inDim());
    const int out_dim = static_cast<int>(blayer.outDim());
    sushi_assert(in_dim <= cfg_.n && out_dim <= cfg_.n);

    sfq::Simulator &sim = net_.sim();
    std::vector<std::vector<int>> result;
    bounds_.clear();

    Tick t = sim.now() + gap_;
    for (const auto &frame : frames) {
        sushi_assert(static_cast<int>(frame.size()) == in_dim);
        bounds_.push_back(t);
        const std::size_t spikes_before_step =
            [&] {
                std::size_t total = 0;
                for (int j = 0; j < out_dim; ++j)
                    total += mesh_->outputDriver(j).pulseCount();
                return total;
            }();
        (void)spikes_before_step;

        // Step start: reset and pre-load the output NPEs.
        for (int j = 0; j < out_dim; ++j) {
            auto &npe = mesh_->outputNpe(j);
            npe.injectRst(t);
            Tick wt = t + gap_;
            const std::uint64_t preload = layer.preload[
                static_cast<std::size_t>(j)];
            for (int b = 0; b < cfg_.sc_per_npe; ++b) {
                if (preload & (std::uint64_t{1} << b)) {
                    npe.injectWrite(b, wt);
                    wt += gap_;
                }
            }
        }
        t += gap_ * (cfg_.sc_per_npe + 2);
        runSim();
        t = std::max(t, sim.now() + gap_);

        // Bias pulses (thresholds <= 0) are delivered excitatory
        // before the passes.
        bool any_bias = false;
        for (int j = 0; j < out_dim; ++j)
            any_bias |= layer.bias_pulses[
                            static_cast<std::size_t>(j)] > 0;
        if (any_bias) {
            for (int j = 0; j < out_dim; ++j)
                mesh_->outputNpe(j).injectSet1(t);
            t += gap_;
            // Feed biases through the diagonal synapse with all
            // others switched off.
            sushi_panic("gate-level bias pulses not supported; "
                        "use thresholds >= 1 in gate tests");
        }

        // Two polarity passes per bucket (tiny nets: one bucket).
        for (int pass = 0; pass < 2; ++pass) {
            const bool neg = pass == 0;
            // Configure the crosspoint switches for this pass.
            std::vector<std::vector<int>> strengths(
                static_cast<std::size_t>(cfg_.n),
                std::vector<int>(static_cast<std::size_t>(cfg_.n),
                                 0));
            for (int i = 0; i < in_dim; ++i) {
                for (int j = 0; j < out_dim; ++j) {
                    const bool w_neg =
                        blayer.weights[static_cast<std::size_t>(j)]
                                      [static_cast<std::size_t>(i)] <
                        0;
                    strengths[static_cast<std::size_t>(i)]
                             [static_cast<std::size_t>(j)] =
                                 (w_neg == neg) ? 1 : 0;
                }
            }
            t = std::max(mesh_->configureWeights(strengths, t, gap_),
                         t);
            // Polarity at the output neurons.
            for (int j = 0; j < out_dim; ++j) {
                if (neg)
                    mesh_->outputNpe(j).injectSet0(t);
                else
                    mesh_->outputNpe(j).injectSet1(t);
            }
            t += gap_;
            runSim();
            t = std::max(t, sim.now() + gap_);

            // Replay the input spikes for this pass, one relay
            // firing at a time.
            for (int i = 0; i < in_dim; ++i) {
                if (!frame[static_cast<std::size_t>(i)])
                    continue;
                t = rearmInputNpe(i, t);
                mesh_->injectInput(i, t);
                t += 2 * gap_;
                runSim();
                t = std::max(t, sim.now() + gap_);
            }
        }
        runSim();
        t = std::max(t, sim.now() + 2 * gap_);

        // Collect this step's output pulses from the drivers.
        std::vector<int> step_counts(
            static_cast<std::size_t>(out_dim), 0);
        for (int j = 0; j < out_dim; ++j) {
            const auto &toggles = mesh_->outputDriver(j).toggles();
            int count = 0;
            for (Tick tt : toggles)
                if (tt >= bounds_.back())
                    ++count;
            step_counts[static_cast<std::size_t>(j)] = count;
        }
        result.push_back(std::move(step_counts));
    }
    bounds_.push_back(t);
    return result;
}

std::vector<std::vector<int>>
GateChip::runProgram(const compiler::CompiledNetwork &cnet,
                     const compiler::PulseProgram &prog)
{
    sushi_assert(cnet.net != nullptr);
    sushi_assert(cnet.layers.size() == 1);
    const int out_dim =
        static_cast<int>(cnet.net->layers()[0].outDim());
    sushi_assert(out_dim <= cfg_.n);

    using compiler::Channel;
    for (const auto &op : prog.ops) {
        switch (op.channel) {
          case Channel::Input:
            mesh_->injectInput(op.a, op.at);
            break;
          case Channel::InRst:
            mesh_->inputNpe(op.a).injectRst(op.at);
            break;
          case Channel::InWrite:
            mesh_->inputNpe(op.a).injectWrite(op.b, op.at);
            break;
          case Channel::InSet0:
            mesh_->inputNpe(op.a).injectSet0(op.at);
            break;
          case Channel::InSet1:
            mesh_->inputNpe(op.a).injectSet1(op.at);
            break;
          case Channel::OutRst:
            mesh_->outputNpe(op.a).injectRst(op.at);
            break;
          case Channel::OutWrite:
            mesh_->outputNpe(op.a).injectWrite(op.b, op.at);
            break;
          case Channel::OutSet0:
            mesh_->outputNpe(op.a).injectSet0(op.at);
            break;
          case Channel::OutSet1:
            mesh_->outputNpe(op.a).injectSet1(op.at);
            break;
          case Channel::SynRst:
            mesh_->synapse(op.a, op.b).injectSwitchClear(op.at);
            break;
          case Channel::SynStrength:
            // w_max is 1 at gate scale: the strength operand arms
            // the series switch only.
            sushi_assert(op.c == 1);
            mesh_->synapse(op.a, op.b).injectSwitchArm(op.at);
            break;
        }
    }
    runSim();

    bounds_ = prog.step_bounds;
    std::vector<std::vector<int>> result;
    for (std::size_t s = 0; s + 1 < bounds_.size(); ++s) {
        std::vector<int> step_counts(
            static_cast<std::size_t>(out_dim), 0);
        for (int j = 0; j < out_dim; ++j) {
            for (Tick tt : mesh_->outputDriver(j).toggles()) {
                if (tt >= bounds_[s] && tt < bounds_[s + 1])
                    ++step_counts[static_cast<std::size_t>(j)];
            }
        }
        result.push_back(std::move(step_counts));
    }
    return result;
}

std::uint64_t
GateChip::violations() const
{
    return net_.sim().violations();
}

} // namespace sushi::chip
