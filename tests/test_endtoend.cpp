// End-to-end integration: Val source -> compiler -> both execution engines,
// validated against the reference evaluator, including the paper's own
// Examples 1 and 2 and the Figure 3 composition.
#include <gtest/gtest.h>

#include <functional>

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
// A[i] = 1, A[i] * 2^62 + 2^62 = 2^63 does not fit in int64.  The evaluator,
// the interpreter, the Reference oracle and both schedulers must all raise
// ValueError on it ("error equals error"), and all return the same values
// on a near-2^62 input that stays in range.
TEST(EndToEnd, IntegerOverflowIsAnErrorOnEvaluatorAndMachine) {
  const std::string src = R"(const m = 4
function f(A: array[integer] [1, m] returns array[integer])
  forall i in [1, m]
  construct A[i] * 4611686018427387904 + 4611686018427387904
  endall
endfun
)";
  const val::Module mod = core::frontend(src);
  const core::CompiledProgram prog = core::compile(mod);
  const auto onMachine = [&](const val::ArrayMap& in, bool reference,
                             machine::SchedulerKind kind) {
    machine::RunOptions opts;
    opts.scheduler = kind;
    opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
    const run::StreamMap streams = testing::inputsFor(prog, in);
    const machine::MachineConfig cfg = machine::MachineConfig::unit();
    return (reference
                ? machine::simulateReference(prog.graph, cfg, streams, opts)
                : machine::simulate(prog.graph, cfg, streams, opts))
        .outputs.at(prog.outputName);
  };
  using Path = std::function<std::vector<Value>(const val::ArrayMap&)>;
  const std::pair<const char*, Path> paths[] = {
      {"evaluator",
       [&](const val::ArrayMap& in) {
         return val::evaluate(mod, in).result.elems;
       }},
      {"interpreter",
       [&](const val::ArrayMap& in) {
         return sim::interpret(prog.graph, testing::inputsFor(prog, in))
             .outputs.at(prog.outputName);
       }},
      {"reference",
       [&](const val::ArrayMap& in) {
         return onMachine(in, true, machine::SchedulerKind::EventDriven);
       }},
      {"event-driven",
       [&](const val::ArrayMap& in) {
         return onMachine(in, false, machine::SchedulerKind::EventDriven);
       }},
      {"compiled",
       [&](const val::ArrayMap& in) {
         return onMachine(in, false, machine::SchedulerKind::Compiled);
       }},
  };
  const auto array = [](std::vector<Value> elems) {
    val::ArrayMap in;
    in["A"].lo = 1;
    in["A"].elems = std::move(elems);
    return in;
  };

  const val::ArrayMap overflowing =
      array({Value(0), Value(-1), Value(1), Value(0)});
  for (const auto& [name, path] : paths)
    EXPECT_THROW(path(overflowing), ValueError) << name;

  const std::int64_t big = std::int64_t{1} << 62;
  const val::ArrayMap inRange =
      array({Value(0), Value(-1), Value(0), Value(-1)});
  const std::vector<Value> want = {Value(big), Value(std::int64_t{0}),
                                   Value(big), Value(std::int64_t{0})};
  for (const auto& [name, path] : paths)
    EXPECT_EQ(path(inRange), want) << name;
}

}  // namespace
}  // namespace valpipe
