// compile_many: cold compiles of a seeded set of generated programs.
//
// One operation is one program: frontend, the four core phases (lowering
// expands FIFOs into identity chains, see schemeFor), flattening and the
// static-schedule IR (sched::computeSteadySchedule), then one short
// wave (m = 32) on EventDriven, checked against val::evaluate.  A round is
// one pass over the whole set; a run makes whole rounds until its time is
// up.  Compile phases dominate here, so an engine gain should leave this
// workload nearly unmoved.

#include "common.hpp"
#include "gen.hpp"
#include "machine/engine.hpp"
#include "sched/schedule.hpp"

namespace perfbench {
namespace {

/// One program of each shape: 2, 4, .., 16 blocks x expression depth 1..4 x
/// four for-iter schemes.
constexpr int kPrograms = 8 * 4 * 4;
constexpr int kM = 32;

struct Program {
  std::string source;
  core::CompileOptions opts;
  run::StreamMap inputs;
  std::vector<Value> expected;
};

/// For-iter scheme `choice`: Auto, Todd, or companion with k = 2 or 4.
/// FIFOs are lowered to identity chains (dfg::expandFifos): with fused
/// FIFO cells, about one generated program in 5000 deadlocks on
/// EventDriven where its expanded form completes (CHANGES.md, FOUND), and
/// a failure that only some seeds draw cannot be part of the benchmark.
core::CompileOptions schemeFor(int choice) {
  core::CompileOptions o;
  o.lower = true;
  o.fuseFifos = false;
  switch (choice) {
    case 0: break;
    case 1: o.forIterScheme = core::ForIterScheme::Todd; break;
    default:
      o.forIterScheme = core::ForIterScheme::Companion;
      o.companionSkip = choice == 2 ? 2 : 4;
      break;
  }
  return o;
}

std::vector<Program> prepare(unsigned seed, bool corrupt) {
  ProgramGen gen(0x9e3779b97f4a7c15ull * (seed + 1));
  std::vector<Program> out;
  out.reserve(kPrograms);
  for (int k = 0; k < kPrograms; ++k) {
    // Every (blocks, depth, scheme) combination once, so that only the
    // programs' contents, not the set's make-up, change with the seed.
    GenShape shape;
    shape.blocks = 2 + 2 * (k % 8);
    shape.maxDepth = 1 + (k / 8) % 4;
    shape.m = kM;
    Program p;
    p.source = gen.module(shape);
    p.opts = schemeFor(k / 32);
    const val::Module mod = core::frontend(p.source);
    val::ArrayMap params;
    std::uint64_t j = 0;
    for (const val::Param& prm : mod.params) {
      params[prm.name] = randomArray(
          *prm.type.range, (std::uint64_t{seed} << 32) + k * 16 + j++, 0, 1);
      p.inputs[prm.name] = params[prm.name].elems;
    }
    p.expected = val::evaluate(mod, params).result.elems;
    out.push_back(std::move(p));
  }
  // Self-check: one evaluator element no correct run can produce.
  if (corrupt) out[0].expected[0] = Value(out[0].expected[0].toReal() + 1.0);
  return out;
}

}  // namespace

Report runCompileMany(const Args& a) {
  Report rep;
  std::vector<Program> progs;
  const double setup = timedSetups(5, [&] { progs = prepare(a.seed, a.corrupt); });

  Tracer tracer;
  Counters c;
  // Per program, its host times in [traced] passes, and the compile share
  // of the untraced ones.
  std::vector<std::vector<double>> progS[2] = {
      std::vector<std::vector<double>>(kPrograms),
      std::vector<std::vector<double>>(kPrograms)};
  std::vector<std::vector<double>> compileS(kPrograms);
  std::int64_t tracedOps = 0, cells = 0, cycles = 0,
               accepted = 0;

  const auto start = Clock::now();
  for (int round = 0; round == 0 || secondsSince(start) < a.seconds; ++round) {
    const bool traced = a.trace && round % 2 == 1;
    tracer.setOn(traced);
    for (int k = 0; k < kPrograms; ++k) {
      const Program& p = progs[static_cast<std::size_t>(k)];
      const std::uint64_t op = static_cast<std::uint64_t>(round) * kPrograms + k;
      ++rep.attempted;
      const auto t0 = Clock::now();
      double compiled = 0;
      Built b;
      sched::SteadySchedule ss;
      machine::MachineResult res;
      try {
        Scope root(tracer, "bench.program", op);
        b = compileTraced(p.source, p.opts, tracer, op, c);
        {
          Scope s(tracer, "sched.ir", op);
          ss = sched::computeSteadySchedule(*b.eg);
        }
        compiled = secondsSince(t0);
        Scope s(tracer, "machine.simulate", op);
        machine::RunOptions ro;
        ro.expectedOutputs[b.prog.outputName] = b.prog.expectedOutputPerWave();
        res = machine::simulate(b.prog.graph, *b.eg,
                                machine::MachineConfig::unit(), p.inputs, ro);
      } catch (const std::exception& e) {
        rep.fail("program " + std::to_string(k) + ": " + e.what());
        continue;
      }
      const double lat = secondsSince(t0);
      progS[traced ? 1 : 0][static_cast<std::size_t>(k)].push_back(lat);
      if (!traced) compileS[static_cast<std::size_t>(k)].push_back(compiled);
      std::string bad = res.completed ? std::string()
                                      : "run incomplete: " + res.note;
      if (bad.empty())
        bad = compareStream(res.outputs[b.prog.outputName], p.expected,
                            reassociated(b.prog) ? 1e-9 : 0.0);
      if (!bad.empty()) {
        rep.fail("program " + std::to_string(k) + ": " + bad);
        continue;
      }
      if (round == 0) {
        cells += static_cast<std::int64_t>(b.eg->size());
        cycles += res.cycles;
        accepted += ss.accepted ? 1 : 0;
      }
      if (traced) {
        ++tracedOps;
        c.add("machine.live_firings", static_cast<double>(res.totalFirings));
        c.add("machine.result_packets",
              static_cast<double>(res.packets.resultPackets));
        c.add("machine.ack_packets", static_cast<double>(res.packets.ackPackets));
        c.add("machine.sim_cycles", static_cast<double>(res.cycles));
      }
    }
  }

  // Each program's least contended times (kKeepShare, common.hpp).
  const BestTimes best = bestTimes(progS[0]);
  const std::vector<double>& latMs = best.keptMs;
  const double programs = static_cast<double>(best.operations);
  rep.e2e = {
      {"setup_s", setup, "s"},
      {"peak_rss_mb", peakRssMb(), "MiB"},
      {"throughput_per_s", programs / best.seconds, "1/s"},
      {"latency_p50_ms", median(latMs), "ms"},
      {"latency_p90_ms", quantile(latMs, 0.9), "ms"},
  };
  rep.notes = {
      {"compile_programs_per_s", programs / bestTimes(compileS).seconds,
       "programs/s"},
      {"compile_cells", static_cast<double>(cells), "cells"},
      {"compile_sim_cycles", static_cast<double>(cycles), "instr_times"},
      {"sched.programs_accepted", static_cast<double>(accepted), "of_128"},
      {"latency_samples", static_cast<double>(latMs.size()), "programs"},
  };
  if (a.trace) {
    rep.layer = {{"trace.overhead_pct",
                  (bestTimes(progS[1]).seconds / best.seconds - 1.0) * 100.0,
                  "%"}};
  }
  rep.counters = std::move(c);
  rep.tracedOps = tracedOps;
  rep.tracer = std::move(tracer);
  return rep;
}

}  // namespace perfbench
