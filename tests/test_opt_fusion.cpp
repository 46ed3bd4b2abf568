// FIFO-fusion suite: the opt::fuseFifos pass must coalesce exactly the
// chains that are provably plain buffering (and nothing else), and a fused
// graph must be indistinguishable from its expanded Id-chain twin at the
// outputs — same values, same output times — on every scheduler, while the
// schedulers stay bit-identical to the Reference oracle on the fused graph
// itself.
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "dfg/lower.hpp"
#include "dfg/stats.hpp"
#include "generators.hpp"
#include "machine/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/rate_report.hpp"
#include "opt/fuse.hpp"
#include "testing.hpp"
#include "val/eval.hpp"

namespace valpipe {
namespace {

using core::CompileOptions;
using dfg::Graph;
using dfg::NodeId;
using dfg::Op;
using dfg::PortSrc;
using machine::MachineConfig;
using machine::MachineResult;
using machine::RunOptions;
using machine::SchedulerKind;
using testing::GenOptions;
using testing::ProgramGen;
using testing::randomArray;

int fifoNodeCount(const Graph& g) {
  int n = 0;
  for (NodeId id : g.ids())
    if (g.node(id).op == Op::Fifo) ++n;
  return n;
}

int soleFifoDepth(const Graph& g) {
  for (NodeId id : g.ids())
    if (g.node(id).op == Op::Fifo) return g.node(id).fifoDepth;
  return 0;
}

TEST(FuseFifos, CoalescesIdChainIntoOneComposite) {
  Graph g;
  const NodeId in = g.input("a", 4);
  PortSrc s = Graph::out(in);
  for (int i = 0; i < 3; ++i) s = Graph::out(g.identity(s));
  g.output("out", s);

  opt::FusionStats fs;
  const Graph fused = opt::fuseFifos(g, &fs);
  EXPECT_EQ(fs.chainsFused, 1u);
  EXPECT_EQ(fs.cellsAbsorbed, 2u);
  ASSERT_EQ(fused.size(), 3u);  // input, composite, output
  EXPECT_EQ(fifoNodeCount(fused), 1);
  EXPECT_EQ(soleFifoDepth(fused), 3);
}

TEST(FuseFifos, MergesBackToBackFifosAndInterveningIds) {
  Graph g;
  const NodeId in = g.input("a", 4);
  PortSrc s = g.fifo(Graph::out(in), 3);
  s = Graph::out(g.identity(s));
  s = g.fifo(s, 2);
  g.output("out", s);

  opt::FusionStats fs;
  const Graph fused = opt::fuseFifos(g, &fs);
  EXPECT_EQ(fs.chainsFused, 1u);
  EXPECT_EQ(fs.cellsAbsorbed, 2u);
  ASSERT_EQ(fused.size(), 3u);
  EXPECT_EQ(soleFifoDepth(fused), 6);  // 3 + 1 + 2 stages
}

TEST(FuseFifos, ChainBreaksAtMultiConsumerTap) {
  Graph g;
  const NodeId in = g.input("a", 4);
  const NodeId a = g.identity(Graph::out(in));
  const NodeId b = g.identity(Graph::out(a));
  g.output("out", Graph::out(b));
  g.output("tap", Graph::out(a));  // `a` feeds two consumers

  opt::FusionStats fs;
  const Graph fused = opt::fuseFifos(g, &fs);
  EXPECT_EQ(fs.chainsFused, 0u);
  EXPECT_EQ(fused.size(), g.size());
}

TEST(FuseFifos, ChainBreaksAtLoadTimeToken) {
  Graph g;
  const NodeId in = g.input("a", 4);
  const NodeId a = g.identity(Graph::out(in));
  PortSrc s = Graph::out(a);
  s.initial = Value(0.0);  // token preloaded on the interior arc
  const NodeId b = g.identity(s);
  g.output("out", Graph::out(b));

  opt::FusionStats fs;
  const Graph fused = opt::fuseFifos(g, &fs);
  EXPECT_EQ(fs.chainsFused, 0u);
  EXPECT_EQ(fused.size(), g.size());
}

TEST(FuseFifos, Idempotent) {
  Graph g;
  const NodeId in = g.input("a", 4);
  PortSrc s = Graph::out(in);
  for (int i = 0; i < 4; ++i) s = Graph::out(g.identity(s));
  g.output("out", s);

  const Graph once = opt::fuseFifos(g);
  opt::FusionStats fs;
  const Graph twice = opt::fuseFifos(once, &fs);
  EXPECT_EQ(fs.chainsFused, 0u);
  EXPECT_EQ(twice.size(), once.size());
  EXPECT_EQ(soleFifoDepth(twice), soleFifoDepth(once));
}

TEST(FuseFifos, CompileLowersFusedByDefaultAndExpandedOnRequest) {
  val::Module mod = core::frontend(testing::example1Source(16));

  CompileOptions fusedOpts;
  fusedOpts.lower = true;  // fuseFifos defaults to true
  const auto progF = core::compile(mod, fusedOpts);

  CompileOptions expandedOpts;
  expandedOpts.lower = true;
  expandedOpts.fuseFifos = false;
  const auto progE = core::compile(mod, expandedOpts);

  EXPECT_TRUE(dfg::isLowered(progE.graph));
  EXPECT_GT(fifoNodeCount(progF.graph), 0);
  EXPECT_LT(progF.graph.size(), progE.graph.size());
  // Same stage budget either way: composite depths add up to the Id cells.
  const dfg::GraphStats sf = dfg::computeStats(progF.graph);
  EXPECT_EQ(sf.cells, progE.graph.size());
}

/// --no-fuse must reproduce the pre-fusion pipeline exactly: compiling with
/// fuseFifos off is the same graph (and the same run, counter for counter)
/// as expanding an unlowered compile by hand.
TEST(FuseFifos, NoFusePathIsByteCompatibleWithManualExpansion) {
  const int m = 16;
  val::Module mod = core::frontend(testing::example1Source(m));
  CompileOptions off;
  off.lower = true;
  off.fuseFifos = false;
  const auto progOff = core::compile(mod, off);
  const auto progRaw = core::compile(mod);  // lower = false
  const Graph manual = dfg::expandFifos(progRaw.graph);
  ASSERT_EQ(progOff.graph.size(), manual.size());

  val::ArrayMap in;
  in["B"] = randomArray({0, m + 1}, 41);
  in["C"] = randomArray({0, m + 1}, 42);
  RunOptions opts;
  opts.expectedOutputs[progRaw.outputName] = progRaw.expectedOutputPerWave();
  const MachineResult a =
      machine::simulate(progOff.graph, MachineConfig::unit(),
                        testing::inputsFor(progOff, in), opts);
  const MachineResult b = machine::simulate(manual, MachineConfig::unit(),
                                            testing::inputsFor(progRaw, in),
                                            opts);
  testing::expectIdentical(a, b, "--no-fuse vs manual expandFifos");
}

val::ArrayMap genInputs(const val::Module& mod, unsigned seed) {
  val::ArrayMap in;
  unsigned k = 0;
  for (const val::Param& p : mod.params)
    in[p.name] = randomArray(*p.type.range, seed + 100 * k++, 0.0, 1.0);
  return in;
}

class FusionEquivalence : public ::testing::TestWithParam<int> {};

/// On random pipe-structured programs, both schedulers must be bit-identical
/// to the Reference oracle on the fused graph, and the fused graph must match the expanded one at
/// the outputs — values and times — under both timing profiles.
TEST_P(FusionEquivalence, FusedBitIdenticalAcrossSchedulersAndMatchesExpanded) {
  const int p = GetParam();
  GenOptions gopts;
  gopts.blocks = 1 + p % 3;
  gopts.m = 8 + p % 5;
  ProgramGen gen(static_cast<unsigned>(p) * 353 + 17, gopts);
  const std::string src = gen.module();
  SCOPED_TRACE(src);

  val::Module mod = core::frontend(src);
  const val::ArrayMap in = genInputs(mod, static_cast<unsigned>(p));
  const auto prog = core::compile(mod);
  opt::FusionStats fs;
  const Graph fused = opt::fuseFifos(prog.graph, &fs);
  const Graph expanded = dfg::expandFifos(prog.graph);
  const run::StreamMap streams = testing::inputsFor(prog, in);

  for (const MachineConfig& cfg :
       {MachineConfig::unit(), MachineConfig::hardware()}) {
    RunOptions opts;
    opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();

    const MachineResult ref =
        machine::simulateReference(fused, cfg, streams, opts);
    ASSERT_TRUE(ref.completed) << ref.note;
    for (const SchedulerKind kind :
         {SchedulerKind::EventDriven, SchedulerKind::Compiled}) {
      opts.scheduler = kind;
      const MachineResult got = machine::simulate(fused, cfg, streams, opts);
      testing::expectIdentical(got, ref, "fused scheduler equivalence");
    }

    const MachineResult exp =
        machine::simulateReference(expanded, cfg, streams, opts);
    ASSERT_TRUE(exp.completed) << exp.note;
    EXPECT_EQ(ref.outputs, exp.outputs) << "fused vs expanded outputs";
    EXPECT_EQ(ref.outputTimes, exp.outputTimes)
        << "fused vs expanded output times";
    EXPECT_EQ(ref.amFinal, exp.amFinal) << "fused vs expanded amFinal";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionEquivalence, ::testing::Range(0, 12));

// A generated four-block program (Todd scheme) whose fused lowering once
// deadlocked on EventDriven and Compiled after 11 of 32 outputs, while a
// full rescan and the expanded lowering completed in 162 instruction
// times.  The cause was a wake into the past from the composite
// FIFO's maturation rule: a head token that matured while its destinations
// were full re-woke its cell at the (past) maturation time, pulling the
// time wheel's cursor back so that cells were examined before their
// operands arrived and their real wakes were spent.  The hang does not
// depend on the input values.
constexpr const char* kFusedDeadlockSource = R"(const m = 32
function gen(P0, P1: array[real] [0, m+1] returns array[real])
  let
    V0 : array[real] [1, m] := forall i in [1, m]
      Q : real := (if i < 19 then (if P0[i+1] > 0.5 then (((1.25 - (0.1 * i)) - (P0[i] - 1.25)) / 2.) else (if P1[i+1] > 0.5 then (if P0[i] > 0.5 then (0.1 * i) else 0.75 endif) else (if i < 13 then P1[i] else 1.75 endif) endif) endif) else (if i < 13 then ((((0.25 - (0.1 * i)) / 2.) + (if i < 14 then 1.75 else 1.25 endif)) * 0.5) else ((if P0[i-1] > 0.5 then P0[i-1] else 1.75 endif) + (if i < 23 then (0.1 * i) else P0[i] endif)) endif) endif);
      construct (Q + ((if P1[i+1] > 0.5 then ((0.1 * i) - P1[i]) else (1.75 + 1.25) endif) - (if P0[i+1] > 0.5 then (if i < 2 then (0.1 * i) else 0.25 endif) else (1.25 - (0.1 * i)) endif))) endall;
    V1 : array[real] [1, m] := forall i in [1, m]
      Q : real := (((if P0[i+1] > 0.5 then (if P0[i] > 0.5 then ((V0[i] - (0.1 * i)) / 2.) else ((P1[i] + 1.25) * 0.5) endif) else ((if i < 19 then V0[i] else P0[i] endif) - ((P1[i+1] + 1.75) * 0.5)) endif) + ((((if i < 29 then (0.1 * i) else 1.75 endif) + (if i < 3 then 0.25 else P0[i-1] endif)) + ((if P0[i] > 0.5 then 0.25 else V0[i] endif) + (P0[i+1] - (0.1 * i)))) * 0.5)) * 0.5);
      construct (V0[i] + Q + (if P0[i] > 0.5 then ((P0[i-1] + P1[i-1]) - ((0.25 - (0.1 * i)) / 2.)) else (if P1[i-1] > 0.5 then ((0.25 + P0[i+1]) * 0.5) else (if i < 29 then P0[i+1] else (0.1 * i) endif) endif) endif)) endall;
    V2 : array[real] [0, m] := for i : integer := 1; T : array[real] := [0: 0.5]
      do let P : real := ((0.3 * P1[i+1]) * T[i-1] + V1[i] + ((((P1[i+1] + 1.75) + (0.75 - P1[i-1])) * 0.5) + (if P1[i-1] > 0.5 then (P0[i+1] + P1[i]) else (if P1[i] > 0.5 then V0[i] else (0.1 * i) endif) endif)))
         in if i < m + 1 then iter T := T[i: P]; i := i + 1 enditer
            else T endif endlet endfor;
    V3 : array[real] [1, m] := forall i in [1, m]
      construct (V2[i] + ((if i < 26 then (if i < 5 then ((1.75 + P0[i]) * 0.5) else ((1.25 + 1.25) * 0.5) endif) else ((if i < 30 then 1.75 else P1[i+1] endif) - ((P1[i+1] - V0[i]) / 2.)) endif) - (((((P1[i] + V1[i]) * 0.5) - ((P1[i+1] - (0.1 * i)) / 2.)) / 2.) + (if i < 12 then (V0[i] + (0.1 * i)) else (V2[i] + (0.1 * i)) endif)))) endall
  in V3 endlet
endfun
)";

TEST(FusedFifoRegression, GeneratedToddProgramCompletesOnEveryScheduler) {
  const val::Module mod = core::frontend(kFusedDeadlockSource);
  run::StreamMap streams;
  for (const val::Param& prm : mod.params)
    streams[prm.name].assign(
        static_cast<std::size_t>(prm.type.range->length()), Value(0.25));

  std::vector<MachineResult> refs;
  for (const bool fuse : {true, false}) {
    CompileOptions co;
    co.lower = true;
    co.fuseFifos = fuse;
    co.forIterScheme = core::ForIterScheme::Todd;
    const auto prog = core::compile(mod, co);
    ASSERT_EQ(fifoNodeCount(prog.graph) > 0, fuse);
    RunOptions opts;
    opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
    const MachineResult ref = machine::simulateReference(
        prog.graph, MachineConfig::unit(), streams, opts);
    const std::string lowering = fuse ? "fused" : "expanded";
    ASSERT_TRUE(ref.completed) << lowering << ": " << ref.note;
    EXPECT_EQ(ref.cycles, 162) << lowering;
    const std::pair<SchedulerKind, const char*> kinds[] = {
        {SchedulerKind::EventDriven, "event-driven"},
        {SchedulerKind::Compiled, "compiled"}};
    for (const auto& [kind, name] : kinds) {
      opts.scheduler = kind;
      const MachineResult got = machine::simulate(
          prog.graph, MachineConfig::unit(), streams, opts);
      testing::expectIdentical(got, ref, lowering + " " + name);
    }
    refs.push_back(ref);
  }
  // The fused graph is the expanded one at the outputs.
  EXPECT_EQ(refs[0].outputs, refs[1].outputs);
  EXPECT_EQ(refs[0].outputTimes, refs[1].outputTimes);
}

TEST(FuseFifos, AuditorCertifiesFusedGraphAtRateHalf) {
  const int m = 128;
  val::Module mod = core::frontend(testing::example1Source(m));
  const auto prog = core::compile(mod);
  const Graph fused = opt::fuseFifos(prog.graph);
  val::ArrayMap in;
  in["B"] = randomArray({0, m + 1}, 51);
  in["C"] = randomArray({0, m + 1}, 52);

  obs::MetricsSink metrics;
  RunOptions opts;
  opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
  opts.metrics = &metrics;
  const MachineResult res = machine::simulate(
      fused, MachineConfig::unit(), testing::inputsFor(prog, in), opts);
  ASSERT_TRUE(res.completed) << res.note;

  const obs::RateReport report = obs::auditMaxPipelining(fused, metrics);
  EXPECT_TRUE(report.fullyPipelined) << report.line();
}

}  // namespace
}  // namespace valpipe
