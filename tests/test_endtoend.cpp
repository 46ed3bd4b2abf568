// End-to-end integration: Val source -> compiler -> both execution engines,
// validated against the reference evaluator, including the paper's own
// Examples 1 and 2 and the Figure 3 composition.
#include <gtest/gtest.h>

#include "testing.hpp"

namespace valpipe {
namespace {

using core::CompileOptions;
using core::ForIterScheme;
using testing::checkInterpreted;
using testing::checkMachine;
using testing::example1Source;
using testing::example2Source;
using testing::figure3Source;
using testing::randomArray;

TEST(EndToEnd, Example1ForallMatchesReference) {
  const int m = 8;
  val::Module mod = core::frontend(example1Source(m));
  val::ArrayMap in;
  in["B"] = randomArray({0, m + 1}, 1);
  in["C"] = randomArray({0, m + 1}, 2);
  const val::EvalResult ref = val::evaluate(mod, in);

  const core::CompiledProgram prog = core::compile(mod);
  checkInterpreted(prog, in, ref.result.elems);
  checkMachine(prog, in, ref.result.elems, 0.0, /*waves=*/1);
}

TEST(EndToEnd, Example1FullyPipelinedRate) {
  const int m = 255;
  val::Module mod = core::frontend(example1Source(m));
  val::ArrayMap in;
  in["B"] = randomArray({0, m + 1}, 3);
  in["C"] = randomArray({0, m + 1}, 4);
  const val::EvalResult ref = val::evaluate(mod, in);
  const core::CompiledProgram prog = core::compile(mod);
  // Theorem 2: the pipeline scheme sustains the machine's maximum rate of
  // one result per two instruction times.
  checkMachine(prog, in, ref.result.elems, 0.0, /*waves=*/4, /*minRate=*/0.45,
               /*maxRate=*/0.5);
}

TEST(EndToEnd, Example2ToddSchemeMatchesReferenceAtOneThirdRate) {
  const int m = 127;
  val::Module mod = core::frontend(example2Source(m));
  val::ArrayMap in;
  in["A"] = randomArray({1, m}, 5);
  in["B"] = randomArray({1, m}, 6);
  const val::EvalResult ref = val::evaluate(mod, in);

  CompileOptions opts;
  opts.forIterScheme = ForIterScheme::Todd;
  const core::CompiledProgram prog = core::compile(mod, opts);
  ASSERT_EQ(prog.blocks.size(), 1u);
  EXPECT_EQ(prog.blocks[0].cycleStages, 3);  // Fig. 7: mult, add, merge
  checkInterpreted(prog, in, ref.result.elems);
  // Rate limited by the 3-stage feedback cycle.
  checkMachine(prog, in, ref.result.elems, 0.0, 1, /*minRate=*/0.30,
               /*maxRate=*/1.0 / 3.0);
}

TEST(EndToEnd, Example2CompanionSchemeRestoresFullRate) {
  const int m = 127;
  val::Module mod = core::frontend(example2Source(m));
  val::ArrayMap in;
  in["A"] = randomArray({1, m}, 7, -0.9, 0.9);
  in["B"] = randomArray({1, m}, 8);
  const val::EvalResult ref = val::evaluate(mod, in);

  CompileOptions opts;
  opts.forIterScheme = ForIterScheme::Companion;
  opts.companionSkip = 2;
  const core::CompiledProgram prog = core::compile(mod, opts);
  ASSERT_EQ(prog.blocks.size(), 1u);
  EXPECT_EQ(prog.blocks[0].cycleStages, 4);  // Fig. 8: even stage count
  EXPECT_EQ(prog.blocks[0].cycleTokens, 2);
  // The companion transform reassociates the arithmetic: compare with a
  // tolerance.
  checkInterpreted(prog, in, ref.result.elems, 1e-9);
  checkMachine(prog, in, ref.result.elems, 1e-9, 1, /*minRate=*/0.45,
               /*maxRate=*/0.5);
}

TEST(EndToEnd, Figure3ComposedProgramFullyPipelined) {
  const int m = 63;
  val::Module mod = core::frontend(figure3Source(m));
  val::ArrayMap in;
  in["B"] = randomArray({0, m + 1}, 9);
  in["C"] = randomArray({0, m + 1}, 10);
  in["A2"] = randomArray({1, m}, 11, -0.9, 0.9);
  const val::EvalResult ref = val::evaluate(mod, in);

  const core::CompiledProgram prog = core::compile(mod);
  checkInterpreted(prog, in, ref.result.elems, 1e-9);
  checkMachine(prog, in, ref.result.elems, 1e-9, /*waves=*/2,
               /*minRate=*/0.45, /*maxRate=*/0.5);
}

TEST(EndToEnd, MultipleWavesStreamThrough) {
  const int m = 16;
  val::Module mod = core::frontend(example1Source(m));
  val::ArrayMap in;
  in["B"] = randomArray({0, m + 1}, 12);
  in["C"] = randomArray({0, m + 1}, 13);
  const val::EvalResult ref = val::evaluate(mod, in);
  const core::CompiledProgram prog = core::compile(mod);
  checkInterpreted(prog, in, ref.result.elems, 0.0, /*waves=*/3);
  checkMachine(prog, in, ref.result.elems, 0.0, /*waves=*/3);
}

// Integer overflow is an error on every path, never a wrapped number: with
// A[i] = 1, A[i] * 2^62 + 2^62 = 2^63 does not fit in int64.
TEST(EndToEnd, IntegerOverflowIsAnErrorOnEvaluatorAndMachine) {
  const std::string src = R"(const m = 4
function f(A: array[integer] [1, m] returns array[integer])
  forall i in [1, m]
  construct A[i] * 4611686018427387904 + 4611686018427387904
  endall
endfun
)";
  const val::Module mod = core::frontend(src);
  val::ArrayMap in;
  in["A"].lo = 1;
  in["A"].elems = {Value(0), Value(-1), Value(1), Value(0)};
  EXPECT_THROW(val::evaluate(mod, in), ValueError);

  const core::CompiledProgram prog = core::compile(mod);
  machine::RunOptions opts;
  opts.scheduler = machine::SchedulerKind::EventDriven;
  opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
  EXPECT_THROW(machine::simulate(prog.graph, machine::MachineConfig::unit(),
                                 testing::inputsFor(prog, in), opts),
               ValueError);
}

}  // namespace
}  // namespace valpipe
