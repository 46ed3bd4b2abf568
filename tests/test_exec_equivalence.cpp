// Scheduler-equivalence suite: on randomly generated Val programs (primitive
// expressions, forall and for-iter blocks) the EventDriven and Compiled
// schedulers must produce a MachineResult bit-identical to the reference
// stepper (machine::simulateReference) — every field, not just outputs —
// under varied timing profiles, finite FU pools, placements and multi-wave
// runs; and the outputs must match the functional
// reference evaluator while sustaining the compiler's predicted steady rate
// (1/2 for pipelines, 1/3 for Todd's scheme, k/S for a cycle of S stages
// carrying k tokens).
#include <gtest/gtest.h>

#include <functional>

#include "core/compiler.hpp"
#include "dfg/lower.hpp"
#include "fault/plan.hpp"
#include "generators.hpp"
#include "guard/guard.hpp"
#include "machine/engine.hpp"
#include "machine/placement.hpp"
#include "obs/metrics.hpp"
#include "opt/fuse.hpp"
#include "recover/snapshot.hpp"
#include "sched/schedule.hpp"
#include "support/check.hpp"
#include "testing.hpp"
#include "val/eval.hpp"

namespace valpipe {
namespace {

using core::CompileOptions;
using core::ForIterScheme;
using machine::MachineConfig;
using machine::MachineResult;
using machine::RunOptions;
using machine::SchedulerKind;
using testing::GenOptions;
using testing::ProgramGen;
using testing::randomArray;

using testing::expectIdentical;

/// Runs both schedulers on the same workload and checks them against the
/// reference stepper field-by-field.  The Compiled scheduler rides along on
/// every workload: accepted graphs take the fast-forward path, everything
/// else exercises its fallback paths — either way the result must stay
/// bit-identical.
MachineResult runAllSchedulers(const dfg::Graph& lowered,
                               const MachineConfig& cfg,
                               const run::StreamMap& in, RunOptions opts,
                               const std::string& what) {
  const MachineResult ref = machine::simulateReference(lowered, cfg, in, opts);
  opts.scheduler = SchedulerKind::EventDriven;
  const MachineResult ed = machine::simulate(lowered, cfg, in, opts);
  opts.scheduler = SchedulerKind::Compiled;
  const MachineResult cp = machine::simulate(lowered, cfg, in, opts);
  expectIdentical(ed, ref, what + " [event-driven vs reference]");
  expectIdentical(cp, ref, what + " [compiled vs reference]");
  EXPECT_TRUE(cp.compiled.requested) << what;
  return ref;
}

val::ArrayMap genInputs(const val::Module& mod, unsigned seed) {
  val::ArrayMap in;
  unsigned k = 0;
  for (const val::Param& p : mod.params)
    in[p.name] = randomArray(*p.type.range, seed + 100 * k++, 0.0, 1.0);
  return in;
}

class SchedulerEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerEquivalence, RandomProgramsBitIdenticalAcrossSchedulers) {
  const int p = GetParam();
  GenOptions gopts;
  gopts.blocks = 1 + p % 3;
  gopts.m = 8 + p % 5;
  ProgramGen gen(static_cast<unsigned>(p) * 271 + 9, gopts);
  const std::string src = gen.module();
  SCOPED_TRACE(src);

  val::Module mod = core::frontend(src);
  const val::ArrayMap in = genInputs(mod, static_cast<unsigned>(p));
  const auto ref = val::evaluate(mod, in);
  const auto prog = core::compile(mod);
  const dfg::Graph lowered = dfg::expandFifos(prog.graph);
  const run::StreamMap streams = testing::inputsFor(prog, in);

  struct Variant {
    std::string name;
    MachineConfig cfg;
    int waves = 1;
    int peCount = 0;  // 0 => no placement
  };
  std::vector<Variant> variants;
  variants.push_back({"unit", MachineConfig::unit(), 1, 0});
  variants.push_back({"hardware", MachineConfig::hardware(), 1, 0});
  {
    MachineConfig finite = MachineConfig::hardware(/*fpus=*/2, /*alus=*/2,
                                                   /*ams=*/1);
    variants.push_back({"finite-fus", finite, 1, 0});
  }
  variants.push_back({"placed", MachineConfig::hardware(), 1, 3});
  variants.push_back({"waves", MachineConfig::unit(), 2, 0});

  for (const Variant& v : variants) {
    RunOptions opts;
    opts.waves = v.waves;
    opts.expectedOutputs[prog.outputName] =
        prog.expectedOutputPerWave() * v.waves;
    if (v.peCount > 0) {
      MachineConfig cfg = v.cfg;
      cfg.interPeDelay = 2;
      opts.placement = machine::assignCells(
          lowered, v.peCount, machine::PlacementStrategy::RoundRobin);
      const MachineResult res =
          runAllSchedulers(lowered, cfg, streams, opts, v.name);
      ASSERT_TRUE(res.completed) << v.name << ": " << res.note;
      continue;
    }
    const MachineResult res =
        runAllSchedulers(lowered, v.cfg, streams, opts, v.name);
    ASSERT_TRUE(res.completed) << v.name << ": " << res.note;
    // Functional ground truth: outputs equal the reference evaluator's.
    std::vector<Value> want;
    for (int w = 0; w < v.waves; ++w)
      want.insert(want.end(), ref.result.elems.begin(),
                  ref.result.elems.end());
    testing::expectStreamNear(res.outputs.at(prog.outputName), want, 1e-7,
                              v.name);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerEquivalence, ::testing::Range(0, 18));

TEST(SchedulerEquivalence, DeadlockMaxCyclesAndQuiescenceAgree) {
  const auto prog = core::compile(core::frontend(testing::example1Source(8)));
  const dfg::Graph lowered = dfg::expandFifos(prog.graph);
  val::ArrayMap in;
  in["B"] = randomArray({0, 9}, 11);
  in["C"] = randomArray({0, 9}, 12);
  const run::StreamMap streams = testing::inputsFor(prog, in);

  // Impossible expectation -> both report the same deadlock.
  RunOptions starve;
  starve.expectedOutputs[prog.outputName] = 10'000;
  runAllSchedulers(lowered, MachineConfig::unit(), streams, starve,
                   "deadlock");

  // Truncated run -> both report maxCycles exceeded at the same point.
  RunOptions truncated;
  truncated.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
  truncated.maxCycles = 7;
  runAllSchedulers(lowered, MachineConfig::hardware(), streams, truncated,
                   "maxCycles");

  // No expectation -> both run to quiescence with identical cycle counts.
  RunOptions open;
  const MachineResult res = runAllSchedulers(
      lowered, MachineConfig::unit(), streams, open, "quiescence");
  EXPECT_TRUE(res.completed);
}

TEST(ReferenceOracle, RejectsRunsAskingForEngineOnlyFeatures) {
  const auto prog = core::compile(core::frontend(testing::example1Source(8)));
  const dfg::Graph lowered = dfg::expandFifos(prog.graph);
  val::ArrayMap in;
  in["B"] = randomArray({0, 9}, 13);
  in["C"] = randomArray({0, 9}, 14);
  const run::StreamMap streams = testing::inputsFor(prog, in);
  const fault::Plan plan;
  const guard::Config guards;
  recover::CheckpointLog log;
  const recover::Snapshot snap;
  const std::pair<const char*, std::function<void(RunOptions&)>> cases[] = {
      {"faults", [&](RunOptions& o) { o.faults = &plan; }},
      {"guards", [&](RunOptions& o) { o.guards = &guards; }},
      {"watchdog", [](RunOptions& o) { o.watchdog = 100; }},
      {"checkpoints",
       [&](RunOptions& o) {
         o.checkpoints = &log;
         o.checkpointEvery = 4;
       }},
      {"restoreFrom", [&](RunOptions& o) { o.restoreFrom = &snap; }},
      {"deadlineMicros", [](RunOptions& o) { o.deadlineMicros = 1'000'000; }},
  };
  for (const auto& [field, set] : cases) {
    RunOptions opts;
    set(opts);
    try {
      machine::simulateReference(lowered, MachineConfig::unit(), streams,
                                 opts);
      ADD_FAILURE() << field << ": the reference stepper accepted it";
    } catch (const InternalError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("RunOptions::") + field),
                std::string::npos)
          << e.what();
    }
  }
  // Without them the oracle runs, and agrees with the production engine.
  runAllSchedulers(lowered, MachineConfig::unit(), streams, RunOptions{},
                   "plain");
}

TEST(SchedulerEquivalence, ForallSustainsPredictedHalfRate) {
  const int m = 128;
  val::Module mod = core::frontend(testing::example1Source(m));
  val::ArrayMap in;
  in["B"] = randomArray({0, m + 1}, 21);
  in["C"] = randomArray({0, m + 1}, 22);
  const auto ref = val::evaluate(mod, in);
  const auto prog = core::compile(mod);
  EXPECT_DOUBLE_EQ(prog.predictedRate(), 0.5);
  testing::checkMachine(prog, in, ref.result.elems, 1e-7, 1, 0.45, 0.5);
}

TEST(SchedulerEquivalence, ForIterSchemesSustainPredictedRates) {
  const int m = 255;
  val::Module mod = core::frontend(testing::example2Source(m));
  val::ArrayMap in;
  in["A"] = randomArray({1, m}, 31, -0.8, 0.8);
  in["B"] = randomArray({1, m}, 32);
  const auto ref = val::evaluate(mod, in);

  // Todd's scheme: a 3-stage feedback cycle with one token -> rate 1/3.
  {
    CompileOptions opts;
    opts.forIterScheme = ForIterScheme::Todd;
    const auto prog = core::compile(mod, opts);
    EXPECT_NEAR(prog.predictedRate(), 1.0 / 3.0, 1e-9);
    const auto res =
        testing::checkMachine(prog, in, ref.result.elems, 1e-6, 1,
                              prog.predictedRate() - 0.04, prog.predictedRate());
    EXPECT_TRUE(res.completed);
  }
  // Companion scheme, skip k: S = 2k stages carry k tokens -> rate k/S = 1/2.
  for (int k : {2, 8}) {
    CompileOptions opts;
    opts.forIterScheme = ForIterScheme::Companion;
    opts.companionSkip = k;
    const auto prog = core::compile(mod, opts);
    ASSERT_EQ(prog.blocks[0].cycleStages, 2 * k);
    ASSERT_EQ(prog.blocks[0].cycleTokens, k);
    const double predicted =
        static_cast<double>(prog.blocks[0].cycleTokens) /
        static_cast<double>(prog.blocks[0].cycleStages);
    EXPECT_DOUBLE_EQ(prog.predictedRate(), predicted);
    const auto res = testing::checkMachine(prog, in, ref.result.elems, 1e-6, 1,
                                           predicted - 0.05, predicted);
    EXPECT_TRUE(res.completed);
  }
}

// --- SchedulerKind::Compiled: steady-state fast-forward ---------------------

/// A pure-DAG program the schedule IR accepts (no gates, merges, feedback).
std::string dagSource(int m) {
  return "const m = " + std::to_string(m) + "\n" + R"(
function f(A, B: array[real] [1, m] returns array[real])
  forall i in [1, m]
  construct 0.5 * (A[i] + B[i]) * A[i]
  endall
endfun
)";
}

struct CompiledRun {
  MachineResult ed;
  MachineResult cp;
};

CompiledRun runCompiledVsEvent(const dfg::Graph& lowered,
                               const MachineConfig& cfg,
                               const run::StreamMap& in, RunOptions opts) {
  CompiledRun r;
  opts.scheduler = SchedulerKind::EventDriven;
  r.ed = machine::simulate(lowered, cfg, in, opts);
  opts.scheduler = SchedulerKind::Compiled;
  r.cp = machine::simulate(lowered, cfg, in, opts);
  return r;
}

class CompiledScheduler : public ::testing::Test {
 protected:
  void prepare(int m) {
    prog_ = core::compileSource(dagSource(m));
    lowered_ = opt::fuseFifos(prog_.graph);
    val::ArrayMap in;
    in["A"] = randomArray({1, m}, 41);
    in["B"] = randomArray({1, m}, 42);
    streams_ = testing::inputsFor(prog_, in);
  }
  RunOptions expectAll(int waves = 1) const {
    RunOptions opts;
    opts.waves = waves;
    opts.expectedOutputs.emplace(prog_.outputName,
                                 prog_.expectedOutputPerWave() * waves);
    return opts;
  }

  core::CompiledProgram prog_;
  dfg::Graph lowered_;
  run::StreamMap streams_;
};

TEST_F(CompiledScheduler, FastForwardsLargeDagBitIdentical) {
  prepare(1024);
  const CompiledRun r = runCompiledVsEvent(lowered_, MachineConfig::unit(),
                                           streams_, expectAll());
  expectIdentical(r.cp, r.ed, "compiled fast-forward (unit)");
  ASSERT_TRUE(r.cp.completed) << r.cp.note;
  EXPECT_TRUE(r.cp.compiled.accepted) << r.cp.compiled.reason;
  EXPECT_TRUE(r.cp.compiled.fastForwarded) << r.cp.compiled.reason;
  EXPECT_GT(r.cp.compiled.windowsSkipped, 0);
  EXPECT_EQ(r.cp.compiled.hyperPeriod, 2);
  EXPECT_EQ(r.cp.compiled.detectedPeriod, 2);
  EXPECT_TRUE(r.cp.compiled.vectorized);
}

TEST_F(CompiledScheduler, FastForwardsUnderHardwareProfileAndMultipleWaves) {
  prepare(512);
  const CompiledRun r = runCompiledVsEvent(lowered_, MachineConfig::hardware(),
                                           streams_, expectAll(/*waves=*/3));
  expectIdentical(r.cp, r.ed, "compiled fast-forward (hardware, 3 waves)");
  ASSERT_TRUE(r.cp.completed) << r.cp.note;
  EXPECT_TRUE(r.cp.compiled.fastForwarded) << r.cp.compiled.reason;
  EXPECT_GT(r.cp.compiled.windowsSkipped, 0);
}

TEST_F(CompiledScheduler, FastForwardsToQuiescenceWithoutExpectations) {
  prepare(768);
  const CompiledRun r = runCompiledVsEvent(lowered_, MachineConfig::unit(),
                                           streams_, RunOptions{});
  expectIdentical(r.cp, r.ed, "compiled quiescence run");
  ASSERT_TRUE(r.cp.completed) << r.cp.note;
  EXPECT_TRUE(r.cp.compiled.fastForwarded) << r.cp.compiled.reason;
  EXPECT_GT(r.cp.compiled.windowsSkipped, 0);
}

TEST_F(CompiledScheduler, GuardsValidatePerHyperPeriodCountersAcrossJumps) {
  prepare(1024);
  guard::Config guards;
  RunOptions opts = expectAll();
  opts.guards = &guards;
  const CompiledRun r =
      runCompiledVsEvent(lowered_, MachineConfig::unit(), streams_, opts);
  expectIdentical(r.cp, r.ed, "compiled run with guards");
  ASSERT_TRUE(r.cp.completed) << r.cp.note;
  EXPECT_TRUE(r.cp.compiled.fastForwarded) << r.cp.compiled.reason;
  EXPECT_GT(r.cp.compiled.windowsSkipped, 0);
}

TEST_F(CompiledScheduler, FiniteFuPoolDisablesFastForwardButStaysIdentical) {
  prepare(256);
  const MachineConfig finite = MachineConfig::hardware(/*fpus=*/2, /*alus=*/2,
                                                       /*ams=*/1);
  const CompiledRun r =
      runCompiledVsEvent(lowered_, finite, streams_, expectAll());
  expectIdentical(r.cp, r.ed, "compiled with finite FU pool");
  EXPECT_TRUE(r.cp.compiled.accepted);
  EXPECT_FALSE(r.cp.compiled.fastForwarded);
  EXPECT_NE(r.cp.compiled.reason.find("function-unit"), std::string::npos)
      << r.cp.compiled.reason;
}

TEST_F(CompiledScheduler, ObservabilitySinksDisableFastForwardButStayIdentical) {
  prepare(256);
  obs::MetricsSink edSink, cpSink;
  RunOptions opts = expectAll();
  opts.scheduler = SchedulerKind::EventDriven;
  opts.metrics = &edSink;
  const MachineResult ed =
      machine::simulate(lowered_, MachineConfig::unit(), streams_, opts);
  opts.scheduler = SchedulerKind::Compiled;
  opts.metrics = &cpSink;
  const MachineResult cp =
      machine::simulate(lowered_, MachineConfig::unit(), streams_, opts);
  expectIdentical(cp, ed, "compiled with metrics sink");
  EXPECT_FALSE(cp.compiled.fastForwarded);
  EXPECT_NE(cp.compiled.reason.find("observability"), std::string::npos)
      << cp.compiled.reason;
}

// --- Compiled on control-static graphs: firing-tape replay ----------------
//
// The IR declines every graph with gates, merges or feedback, but when their
// control runs off compile-time sequences (boundary patterns, loop merges)
// the compiled scheduler still fast-forwards them, replaying a recorded
// firing tape for the values.  Each case runs fused and expanded, 3 waves.

/// Fig. 4's selection: a three-point stencil over shifted index streams.
std::string selectionSource(int m) {
  return "const m = " + std::to_string(m) + "\n" + R"(
function sel(C: array[real] [0, m+1] returns array[real])
  forall i in [1, m]
  construct 0.25 * (C[i-1] + 2.*C[i] + C[i+1])
  endall
endfun
)";
}

/// Fig. 5's conditional: the gate reads input data.
std::string conditionalSource(int m) {
  return "const m = " + std::to_string(m) + "\n" + R"(
function cond(A, B, C: array[real] [1, m] returns array[real])
  forall i in [1, m]
  construct if C[i] > 0. then -(A[i] + B[i])
            else 5. * (A[i] * B[i] + 2.) endif
  endall
endfun
)";
}

/// Inputs for every parameter of `prog`, seeded per parameter.
run::StreamMap seededInputs(const core::CompiledProgram& prog, unsigned seed,
                            double lo = -0.9, double hi = 0.9) {
  val::ArrayMap in;
  unsigned k = 0;
  for (const auto& [name, range] : prog.inputs)
    in[name] = randomArray(range, seed + 100 * k++, lo, hi);
  return testing::inputsFor(prog, in);
}

RunOptions expectWaves(const core::CompiledProgram& prog, int waves) {
  RunOptions opts;
  opts.waves = waves;
  opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave() * waves;
  return opts;
}

/// Compiled vs EventDriven on both lowerings of `prog`: field-identical,
/// and fast-forwarded through the tape.
void expectTapeReplayIdentical(const core::CompiledProgram& prog,
                               const run::StreamMap& in, RunOptions opts,
                               const std::string& what) {
  for (bool fuse : {true, false}) {
    const dfg::Graph lowered =
        fuse ? opt::fuseFifos(prog.graph) : dfg::expandFifos(prog.graph);
    const std::string tag = what + (fuse ? " [fused]" : " [expanded]");
    const CompiledRun r =
        runCompiledVsEvent(lowered, MachineConfig::unit(), in, opts);
    expectIdentical(r.cp, r.ed, tag);
    ASSERT_TRUE(r.cp.completed) << tag << ": " << r.cp.note;
    EXPECT_FALSE(r.cp.compiled.accepted) << tag;
    EXPECT_TRUE(r.cp.compiled.fastForwarded) << tag << ": "
                                             << r.cp.compiled.reason;
    EXPECT_TRUE(r.cp.compiled.tapeReplay) << tag;
    EXPECT_GT(r.cp.compiled.windowsSkipped, 0) << tag;
  }
}

TEST(CompiledTapeReplay, Example1BitIdenticalAcrossWaves) {
  const auto prog = core::compile(core::frontend(testing::example1Source(256)));
  expectTapeReplayIdentical(prog, seededInputs(prog, 81), expectWaves(prog, 3),
                            "example 1");
}

TEST(CompiledTapeReplay, SelectionBitIdenticalAcrossWaves) {
  const auto prog = core::compile(core::frontend(selectionSource(256)));
  expectTapeReplayIdentical(prog, seededInputs(prog, 83), expectWaves(prog, 3),
                            "selection");
}

TEST(CompiledTapeReplay, FeedbackSchemesFastForwardBitIdentical) {
  // Both for-iter schemes carry feedback cycles and loop merges the IR
  // declines; their merges run off compile-time sequences, so the compiled
  // scheduler fast-forwards them and must match the event-driven run.
  struct Scheme {
    ForIterScheme scheme;
    int skip;
  };
  for (const Scheme& sc : {Scheme{ForIterScheme::Todd, 0},
                           Scheme{ForIterScheme::Companion, 2},
                           Scheme{ForIterScheme::Companion, 4}}) {
    CompileOptions copts;
    copts.forIterScheme = sc.scheme;
    if (sc.skip > 0) copts.companionSkip = sc.skip;
    const auto prog =
        core::compile(core::frontend(testing::example2Source(256)), copts);
    expectTapeReplayIdentical(
        prog, seededInputs(prog, 85), expectWaves(prog, 3),
        sc.skip > 0 ? "companion k=" + std::to_string(sc.skip) : "todd");
  }
}

TEST(CompiledTapeReplay, PatternTurnBetweenEqualDepthBranches) {
  // Both arms of the conditional have the same depth, so the machine's
  // timing is the same whichever way the gate routes: only the control
  // values in the snapshot tell the T half of the wave from the F half, and
  // the replay must follow each half's gate.
  const int m = 256;
  const std::string src = "const m = " + std::to_string(m) + "\n" + R"(
function half(A: array[real] [1, m] returns array[real])
  forall i in [1, m]
  construct if i <= 100 then A[i] + 1. else A[i] - 1. endif
  endall
endfun
)";
  const auto prog = core::compile(core::frontend(src));
  expectTapeReplayIdentical(prog, seededInputs(prog, 86), expectWaves(prog, 3),
                            "equal-depth branches");
}

TEST(CompiledTapeReplay, DelayedControlRoutesBothSidesAcrossTheTurn) {
  // A gated identity feeding both tagged sides, its control delayed through
  // a FIFO.  Across the pattern turn the FIFO holds T..T F and T..F F with
  // every timestamp equal, so only the snapshot's control values keep a jump
  // from crossing the turn; the replay must route each token by its own gate.
  const std::int64_t n = 300;
  const std::size_t ts = 120;
  dfg::Graph g;
  const auto a = g.input("a", n);
  const auto ctl = g.boolSeq(
      dfg::BoolPattern::runs(0, ts, static_cast<std::size_t>(n) - ts), "ctl");
  const auto route =
      g.gatedIdentity(dfg::Graph::out(a), g.fifo(dfg::Graph::out(ctl), 6));
  g.output("x", dfg::Graph::out(g.binary(dfg::Op::Add, dfg::Graph::outT(route),
                                         dfg::Graph::lit(Value(1.0)))));
  g.output("y", dfg::Graph::out(g.binary(dfg::Op::Sub, dfg::Graph::outF(route),
                                         dfg::Graph::lit(Value(1.0)))));
  run::StreamMap in;
  in["a"] = randomArray({1, n}, 88).elems;
  const int waves = 3;
  RunOptions opts;
  opts.waves = waves;
  opts.expectedOutputs["x"] = static_cast<std::int64_t>(ts) * waves;
  opts.expectedOutputs["y"] = (n - static_cast<std::int64_t>(ts)) * waves;
  for (bool fuse : {true, false}) {
    const dfg::Graph lowered = fuse ? opt::fuseFifos(g) : dfg::expandFifos(g);
    const std::string tag = fuse ? "delayed control [fused]"
                                 : "delayed control [expanded]";
    const CompiledRun r =
        runCompiledVsEvent(lowered, MachineConfig::unit(), in, opts);
    expectIdentical(r.cp, r.ed, tag);
    ASSERT_TRUE(r.cp.completed) << tag << ": " << r.cp.note;
    EXPECT_TRUE(r.cp.compiled.tapeReplay) << tag << ": "
                                          << r.cp.compiled.reason;
    EXPECT_GT(r.cp.compiled.windowsSkipped, n) << tag;
  }
}

TEST(CompiledTapeReplay, GuardsValidateAcrossReplayJumps) {
  const auto prog = core::compile(core::frontend(testing::example1Source(256)));
  guard::Config guards;
  RunOptions opts = expectWaves(prog, 3);
  opts.guards = &guards;
  expectTapeReplayIdentical(prog, seededInputs(prog, 87), opts,
                            "example 1 with guards");
}

TEST(CompiledTapeReplay, DivisionByZeroLateInWaveRaisesTheSameValueError) {
  // The divisor reaches 0.0 three quarters into the wave, inside the stretch
  // the compiled run skips: the replay must raise the event run's error.
  const int m = 256;
  const std::string src = "const m = " + std::to_string(m) + "\n" + R"(
function q(B, C: array[real] [0, m+1] returns array[real])
  forall i in [0, m+1]
    P : real := if (i = 0) | (i = m+1) then C[i] else B[i] / C[i] endif;
  construct P * P
  endall
endfun
)";
  const auto prog = core::compile(core::frontend(src));
  run::StreamMap in = seededInputs(prog, 89, 0.5, 1.0);
  in.at("C")[3 * m / 4] = Value(0.0);
  for (bool fuse : {true, false}) {
    const dfg::Graph lowered =
        fuse ? opt::fuseFifos(prog.graph) : dfg::expandFifos(prog.graph);
    RunOptions opts = expectWaves(prog, 3);
    std::string errs[2];
    for (int k = 0; k < 2; ++k) {
      opts.scheduler = k == 0 ? SchedulerKind::EventDriven
                              : SchedulerKind::Compiled;
      try {
        machine::simulate(lowered, MachineConfig::unit(), in, opts);
        ADD_FAILURE() << "division by zero did not raise (scheduler " << k
                      << ", fused " << fuse << ")";
      } catch (const ValueError& e) {
        errs[k] = e.what();
      }
    }
    EXPECT_FALSE(errs[0].empty());
    EXPECT_EQ(errs[1], errs[0]) << "fused " << fuse;
    // Without the zero the same run takes the jump that covers it.
    in.at("C")[3 * m / 4] = Value(0.75);
    opts.scheduler = SchedulerKind::Compiled;
    const MachineResult ok =
        machine::simulate(lowered, MachineConfig::unit(), in, opts);
    in.at("C")[3 * m / 4] = Value(0.0);
    EXPECT_TRUE(ok.compiled.tapeReplay) << ok.compiled.reason;
    EXPECT_GT(ok.compiled.windowsSkipped, m) << ok.compiled.reason;
  }
}

TEST(CompiledTapeReplay, PaperFiguresAtFullSizeBitIdentical) {
  // fig2–fig8 at m = 4096 x 4 waves, FIFO chains fused as valc runs them:
  // fig2 takes the IR loop, fig5's data-steered gate runs event-driven, and
  // every other figure fast-forwards through the tape.
  const int m = 4096;
  const std::string fig2 = "const m = " + std::to_string(m) + "\n" + R"(
function fig2(A, B: array[real] [1, m] returns array[real])
  forall i in [1, m]
  construct (A[i]*B[i] + 2.) * (A[i]*B[i] - 3.)
  endall
endfun
)";
  CompileOptions todd;
  todd.forIterScheme = ForIterScheme::Todd;
  CompileOptions companion;
  companion.forIterScheme = ForIterScheme::Companion;
  companion.companionSkip = 4;
  struct Fig {
    const char* name;
    std::string source;
    CompileOptions opts;
  };
  const Fig figs[] = {
      {"fig2", fig2, {}},
      {"fig3", testing::figure3Source(m), {}},
      {"fig4", selectionSource(m), {}},
      {"fig5", conditionalSource(m), {}},
      {"fig6", testing::example1Source(m), {}},
      {"fig7", testing::example2Source(m), todd},
      {"fig8", testing::example2Source(m), companion},
  };
  for (const Fig& f : figs) {
    const auto prog = core::compile(core::frontend(f.source), f.opts);
    const CompiledRun r =
        runCompiledVsEvent(opt::fuseFifos(prog.graph), MachineConfig::unit(),
                           seededInputs(prog, 91), expectWaves(prog, 4));
    expectIdentical(r.cp, r.ed, f.name);
    ASSERT_TRUE(r.cp.completed) << f.name << ": " << r.cp.note;
    const auto& ci = r.cp.compiled;
    if (std::string(f.name) == "fig5") {
      EXPECT_FALSE(ci.fastForwarded);
      EXPECT_NE(ci.reason.find("declined (data-dependent-control)"),
                std::string::npos)
          << ci.reason;
      continue;
    }
    EXPECT_TRUE(ci.fastForwarded) << f.name << ": " << ci.reason;
    EXPECT_GT(ci.windowsSkipped, 0) << f.name;
    EXPECT_EQ(ci.tapeReplay, std::string(f.name) != "fig2") << f.name;
  }
}

// --- Compiled fallback: control steered by input data ------------------------

TEST(CompiledFallback, GatedGraphFallsBackWithStructuredReason) {
  const auto prog = core::compile(core::frontend(conditionalSource(64)));
  const dfg::Graph lowered = dfg::expandFifos(prog.graph);
  const run::StreamMap streams = seededInputs(prog, 51, -1.0, 1.0);
  RunOptions opts;
  opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
  const CompiledRun r =
      runCompiledVsEvent(lowered, MachineConfig::unit(), streams, opts);
  expectIdentical(r.cp, r.ed, "compiled fallback on data-steered gates");
  ASSERT_TRUE(r.cp.completed) << r.cp.note;
  EXPECT_TRUE(r.cp.compiled.requested);
  EXPECT_FALSE(r.cp.compiled.accepted);
  EXPECT_FALSE(r.cp.compiled.fastForwarded);
  EXPECT_NE(r.cp.compiled.reason.find("declined (data-dependent-control)"),
            std::string::npos)
      << r.cp.compiled.reason;
  EXPECT_NE(r.cp.compiled.reason.find("falling back to event-driven"),
            std::string::npos)
      << r.cp.compiled.reason;
}

TEST(CompiledFallback, ErrorModeThrowsScheduleDeclined) {
  const auto prog = core::compile(core::frontend(conditionalSource(8)));
  const dfg::Graph lowered = dfg::expandFifos(prog.graph);
  const run::StreamMap streams = seededInputs(prog, 61, -1.0, 1.0);
  RunOptions opts;
  opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
  opts.scheduler = SchedulerKind::Compiled;
  opts.compiledFallback = core::CompiledFallback::Error;
  try {
    machine::simulate(lowered, MachineConfig::unit(), streams, opts);
    ADD_FAILURE() << "expected ScheduleDeclined";
  } catch (const sched::ScheduleDeclined& e) {
    EXPECT_EQ(e.decline(), sched::Decline::InputControl) << e.what();
  }
  // A control-static graph is no decline under Error: it fast-forwards.
  const auto ex1 = core::compile(core::frontend(testing::example1Source(64)));
  RunOptions ex1Opts = expectWaves(ex1, 1);
  ex1Opts.scheduler = SchedulerKind::Compiled;
  ex1Opts.compiledFallback = core::CompiledFallback::Error;
  const MachineResult ok =
      machine::simulate(dfg::expandFifos(ex1.graph), MachineConfig::unit(),
                        seededInputs(ex1, 63), ex1Opts);
  EXPECT_TRUE(ok.completed) << ok.note;
  EXPECT_TRUE(ok.compiled.tapeReplay) << ok.compiled.reason;
}

}  // namespace
}  // namespace valpipe
