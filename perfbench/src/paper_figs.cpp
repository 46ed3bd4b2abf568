// paper_figs: the paper's seven figure programs, Val source to output
// stream, as valc compiles and runs them, under SchedulerKind::Compiled.
//
// One operation is one figure: frontend, the four core phases (lowering
// fuses FIFO chains through opt::fuseFifos), flattening, and a kWaves-wave
// machine run at m = kM.  A round runs all seven figures; a run makes whole
// rounds until its time is up.  Every figure's output is checked against
// val::evaluate on the same seeded inputs, and its steady rate against the
// §3 prediction.
#include <cmath>
#include <sstream>

#include "common.hpp"
#include "figures.hpp"
#include "machine/engine.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kM = 4096;
constexpr int kWaves = 4;
/// Largest |steadyRate - predictedRate| a figure may show (instruction
/// times): the 25%-75% window of a multi-wave run still sees wave seams.
constexpr double kRateSlack = 0.02;

struct Figure {
  const char* name;  ///< also the per-layer metric stem: machine.<name>_s
  std::string source;
  core::CompileOptions opts;
  double rate;  ///< the paper's predicted steady rate (§3, §7)
  double lo, hi;  ///< input value range
};

std::vector<Figure> figures() {
  // What valc compiles with before a run: default schemes, FIFO chains
  // fused into composite cells (opt::fuseFifos, via core::phases::lower).
  core::CompileOptions fused;
  fused.lower = true;
  fused.fuseFifos = true;
  core::CompileOptions todd = fused;
  todd.forIterScheme = core::ForIterScheme::Todd;
  core::CompileOptions companion = fused;
  companion.forIterScheme = core::ForIterScheme::Companion;
  companion.companionSkip = 4;
  // Recurrence inputs stay inside (-0.9, 0.9) so products decay.
  return {
      {"fig2", withM(kM, kFig2), fused, 0.5, -1, 1},
      {"fig3", withM(kM, kFig3), fused, 0.5, -0.9, 0.9},
      {"fig4", withM(kM, kFig4), fused, 0.5, -1, 1},
      {"fig5", withM(kM, kFig5), fused, 0.5, -1, 1},
      {"fig6", withM(kM, kFig6), fused, 0.5, -1, 1},
      {"fig7", withM(kM, kRecurrence), todd, 1.0 / 3.0, -0.9, 0.9},
      {"fig8", withM(kM, kRecurrence), companion, 0.5, -0.9, 0.9},
  };
}

struct Prepared {
  run::StreamMap inputs;
  std::vector<Value> expected;  ///< kWaves waves of the evaluator's result
  double rate = 0;
};

/// Seeded inputs and the evaluator's expected outputs for every figure.
std::vector<Prepared> prepare(const std::vector<Figure>& figs, unsigned seed,
                              bool corrupt) {
  std::vector<Prepared> out;
  for (std::size_t f = 0; f < figs.size(); ++f) {
    const val::Module mod = core::frontend(figs[f].source);
    val::ArrayMap params;
    Prepared p;
    std::uint64_t k = 0;
    for (const val::Param& prm : mod.params) {
      params[prm.name] =
          randomArray(*prm.type.range, (std::uint64_t{seed} << 20) + f * 64 + k++,
                      figs[f].lo, figs[f].hi);
      p.inputs[prm.name] = params[prm.name].elems;
    }
    p.expected = repeatWaves(val::evaluate(mod, params).result.elems, kWaves);
    p.rate = figs[f].rate;
    out.push_back(std::move(p));
  }
  // Self-check: one predicted rate no correct run can meet.
  if (corrupt) out[5].rate = 0.25;
  return out;
}

machine::RunOptions runOptions(const core::CompiledProgram& prog,
                               core::SchedulerKind kind) {
  machine::RunOptions ro;
  ro.waves = kWaves;
  ro.scheduler = kind;
  ro.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave() * kWaves;
  return ro;
}

}  // namespace

Report runPaperFigs(const Args& a) {
  Report rep;
  const std::vector<Figure> figs = figures();
  std::vector<Prepared> prep;
  const double setup = timedSetups(
      5, [&] { prep = prepare(figs, a.seed, a.corrupt); });

  Tracer tracer;
  Counters c;
  const std::size_t nf = figs.size();
  // Per figure, its host times in [traced] rounds.
  std::vector<std::vector<double>> figS[2] = {
      std::vector<std::vector<double>>(nf), std::vector<std::vector<double>>(nf)};
  std::vector<double> roundS;            // untraced round host time
  std::vector<std::vector<double>> simS(nf);  // traced: per-figure engine time
  std::vector<double> declineMs;         // traced: per-round decline cost
  std::int64_t tracedOps = 0, cycles = 0, cells = 0;
  int accepted = 0;

  const auto start = Clock::now();
  for (int round = 0; round == 0 || secondsSince(start) < a.seconds; ++round) {
    // A traced run alternates traced and untraced rounds; the ratio of
    // their best times is the tracing overhead.
    const bool traced = a.trace && round % 2 == 1;
    tracer.setOn(traced);
    double roundTime = 0, decline = 0;
    for (std::size_t f = 0; f < nf; ++f) {
      const std::uint64_t op = static_cast<std::uint64_t>(round) * nf + f;
      ++rep.attempted;
      const auto t0 = Clock::now();
      double sim = 0;
      Built b;
      machine::MachineResult res;
      try {
        Scope root(tracer, "bench.figure", op);
        b = compileTraced(figs[f].source, figs[f].opts, tracer, op, c);
        Scope s(tracer, "machine.simulate", op);
        const auto s0 = Clock::now();
        res = machine::simulate(
            b.prog.graph, *b.eg, machine::MachineConfig::unit(),
            prep[f].inputs,
            runOptions(b.prog, core::SchedulerKind::Compiled));
        sim = secondsSince(s0);
      } catch (const std::exception& e) {
        rep.fail(std::string(figs[f].name) + ": " + e.what());
        continue;
      }
      const double lat = secondsSince(t0);
      roundTime += lat;
      figS[traced ? 1 : 0][f].push_back(lat);

      const std::string& out = b.prog.outputName;
      std::string bad;
      if (!res.completed) bad = "run incomplete: " + res.note;
      if (bad.empty())
        bad = compareStream(res.outputs[out], prep[f].expected,
                            reassociated(b.prog) ? 1e-9 : 0.0);
      const double steady = res.steadyRate(out);
      if (bad.empty() &&
          (std::fabs(b.prog.predictedRate() - prep[f].rate) > 1e-12 ||
           std::fabs(steady - prep[f].rate) > kRateSlack)) {
        std::ostringstream os;
        os << "steady rate " << steady << ", predicted "
           << b.prog.predictedRate() << ", paper " << prep[f].rate;
        bad = os.str();
      }
      if (!bad.empty()) {
        rep.fail(std::string(figs[f].name) + ": " + bad);
        continue;
      }
      if (round == 0) {
        cycles += res.cycles;
        cells += static_cast<std::int64_t>(b.eg->size());
        accepted += res.compiled.accepted ? 1 : 0;
      }
      if (!traced) continue;
      ++tracedOps;
      simS[f].push_back(sim);
      const std::uint64_t live = res.totalFirings - res.compiled.firingsSkipped;
      c.add("machine.live_firings", static_cast<double>(live));
      c.add("machine.result_packets",
            static_cast<double>(res.packets.resultPackets));
      c.add("machine.ack_packets", static_cast<double>(res.packets.ackPackets));
      c.add("machine.sim_cycles", static_cast<double>(res.cycles));
      c.add("sched.firings_skipped",
            static_cast<double>(res.compiled.firingsSkipped));
      if (!res.compiled.accepted) {
        // What the declined graph costs: the same run on EventDriven,
        // outside the round's timed figures.
        const auto e0 = Clock::now();
        machine::simulate(b.prog.graph, *b.eg, machine::MachineConfig::unit(),
                          prep[f].inputs,
                          runOptions(b.prog, core::SchedulerKind::EventDriven));
        decline += (sim - secondsSince(e0)) * 1e3;
      }
    }
    if (traced) declineMs.push_back(decline);
    else roundS.push_back(roundTime);
  }

  // Each figure's least contended times (kKeepShare, common.hpp).
  const BestTimes best = bestTimes(figS[0]);
  const double figsE2e = best.seconds;
  const std::vector<double>& latMs = best.keptMs;
  rep.e2e = {
      {"setup_s", setup, "s"},
      {"peak_rss_mb", peakRssMb(), "MiB"},
      {"throughput_per_s", static_cast<double>(best.operations) / figsE2e,
       "1/s"},
      {"latency_p50_ms", median(latMs), "ms"},
      {"latency_p90_ms", quantile(latMs, 0.9), "ms"},
  };
  rep.notes = {
      {"figs_e2e_s", figsE2e, "s"},
      {"figs_e2e_median_s", median(roundS), "s"},
      {"figs_sim_cycles", static_cast<double>(cycles), "instr_times"},
      {"figs_cells", static_cast<double>(cells), "cells"},
      {"sched.figs_accepted", static_cast<double>(accepted), "of_7"},
      {"latency_samples", static_cast<double>(latMs.size()), "figures"},
  };
  if (a.trace) {
    auto& L = rep.layer;
    for (std::size_t f = 0; f < nf; ++f)
      L.push_back({std::string("machine.") + figs[f].name + "_s",
                   median(simS[f]), "s"});
    L.push_back({"machine.decline_overhead_ms", median(declineMs), "ms"});
    L.push_back({"sched.figs_accepted", static_cast<double>(accepted), "count"});
    L.push_back({"trace.overhead_pct",
                 (bestTimes(figS[1]).seconds / figsE2e - 1.0) * 100.0, "%"});
  }
  rep.counters = std::move(c);
  rep.tracedOps = tracedOps;
  rep.tracer = std::move(tracer);
  return rep;
}

}  // namespace perfbench
