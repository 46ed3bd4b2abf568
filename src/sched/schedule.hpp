// Static-schedule IR of the compiled steady-state backend (§3).
//
// The paper's central observation is that a *balanced* data flow graph needs
// no runtime scheduling at all: every cell fires once per hyper-period (two
// instruction times under the unit profile — one forward result hop plus one
// backward acknowledge hop), and which instruction time within the period a
// cell fires at is fixed by its pipeline depth.  The schedulers in
// src/machine rediscover that schedule token by token; SteadySchedule records
// it once, at compile/inspect time, from the same structural facts the
// balancer and opt::fuseFifos derive:
//
//   slot[c]      — the cell's ASAP pipeline depth: the instruction-time
//                  offset (in stage periods) of its first steady firing
//                  relative to the sources.  A composite FIFO of depth k
//                  occupies k consecutive slots (its fused Id chain);
//   phase[c]     — slot[c] mod hyperPeriod: which half of the period the
//                  cell fires in once the pipe is full;
//   arcOffset[s] — per operand arc, the steady-state buffer offset: how many
//                  firings the consumer's token index trails the producer's
//                  (1 for a plain arc, k across a depth-k FIFO).  In steady
//                  state this is exactly the token population of the arc;
//   topo         — a topological order of the cells, the straight-line
//                  evaluation order of the steady-state value loop
//                  (sched/steady_loop.hpp).
//
// The IR is a *certificate*, not an oracle: the runtime detector
// (machine/engine_compiled.cpp) independently verifies the machine state
// really has become periodic before skipping ahead.  A graph is declined —
// with a structured reason, so valc --explain-schedule and
// MachineResult::compiled can say why — when its firing pattern has no
// static straight-line form: routing by gates or merges, feedback cycles or
// load-time tokens (for-iter schemes), array-memory traffic, or unbalanced
// reconvergence (§8: an unbalanced graph throttles below the maximum rate,
// so no single hyper-period describes it).
//
// A declined graph may still be *control-static*: no input data reaches a
// gate or merge selector (sched/control.hpp) and it has no array memory.
// Its control then runs off compile-time sequences, its trajectory is
// input-independent, and SchedulerKind::Compiled fast-forwards it by
// replaying a recorded firing tape instead of the IR's value loop.  Only a
// graph whose control depends on input data (Decline::InputControl) or on
// array memory runs purely event-driven.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/executable_graph.hpp"

namespace valpipe::sched {

/// Why a graph has no static steady schedule.
enum class Decline : std::uint8_t {
  None,         ///< accepted
  Gate,         ///< gated delivery: destinations depend on runtime booleans
  Merge,        ///< non-strict merge: consumption depends on runtime booleans
  ArrayMemory,  ///< AmStore/AmFetch traffic has data-dependent availability
  Feedback,     ///< feedback cycle (for-iter schemes): rate k/S, not 1/P
  InitialToken, ///< load-time token (counter bootstrap) implies a cycle
  Unbalanced,   ///< reconvergent operands at unequal depth (§8)
  InputControl, ///< input data reaches a gate port or merge selector
};

const char* declineName(Decline d);

/// Thrown by the Compiled scheduler under CompiledFallback::Error.
class ScheduleDeclined : public std::runtime_error {
 public:
  ScheduleDeclined(Decline d, const std::string& what)
      : std::runtime_error(what), decline_(d) {}
  Decline decline() const { return decline_; }

 private:
  Decline decline_;
};

/// The static steady-state schedule of an accepted graph (file comment).
struct SteadySchedule {
  bool accepted = false;
  Decline decline = Decline::None;
  std::string detail;  ///< human-readable decline reason ("" when accepted)
  /// No input data reaches control and there is no array memory: the run's
  /// firing trajectory is input-independent (file comment).  True for every
  /// accepted graph; on a declined one it selects firing-tape replay.
  bool controlStatic = false;

  /// Stage period under the unit timing profile: one result hop forward plus
  /// one acknowledge hop backward — the §3 maximum-repetition-rate bound of
  /// one firing per two instruction times.  Other profiles stretch the
  /// period; the runtime detector measures the actual one.
  std::int64_t hyperPeriod = 2;
  std::int64_t depthMax = 0;  ///< pipeline fill depth in stages

  // Per-cell / per-operand-slot facts; empty when declined.
  std::vector<std::int64_t> slot;       ///< per cell: ASAP firing slot
  std::vector<std::int32_t> phase;      ///< per cell: slot % hyperPeriod
  std::vector<std::int64_t> arcOffset;  ///< per flat operand slot (0=literal)
  std::vector<std::uint32_t> topo;      ///< straight-line evaluation order

  /// The --explain-schedule dump: hyper-period, per-cell slot/phase table,
  /// arc offsets — or the structured decline reason.
  std::string explain(const exec::ExecutableGraph& eg) const;
};

/// Computes the steady schedule of `eg`, or the structured decline (with
/// controlStatic set either way).  Pure graph analysis: no timing profile,
/// no input data.
SteadySchedule computeSteadySchedule(const exec::ExecutableGraph& eg);

}  // namespace valpipe::sched
