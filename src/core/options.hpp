// Compilation options selecting among the paper's mapping schemes.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "support/value.hpp"

namespace valpipe::core {

/// §6: pipeline scheme (arrays as streams, Theorem 2) or the baseline
/// parallel scheme (one body copy per element, "of limited interest").
enum class ForallScheme { Pipeline, Parallel };

/// §7 mapping of for-iter blocks.
enum class ForIterScheme {
  /// Companion-function scheme (Fig. 8) when the recurrence is simple,
  /// falling back to Todd's scheme otherwise.
  Auto,
  /// Todd's scheme (Fig. 7): a p-stage feedback cycle, rate 1/p.
  Todd,
  /// Companion-pipeline scheme (Fig. 8, Theorem 3); requires a simple
  /// (linear) recurrence.  Fails with CompileError otherwise.
  Companion,
  /// §9 alternative: trade delay for rate by interleaving `interleave`
  /// independent recurrence instances through a long FIFO in the cycle.
  LongFifo,
};

/// How FIFO buffering is assigned during balancing (§8).
enum class BalanceMode {
  None,         ///< leave the graph unbalanced (for the C1 experiment)
  LongestPath,  ///< ASAP depths: simple polynomial balancing, §8 (1)
  Optimal,      ///< minimum total buffering via the min-cost-flow dual, §8 (3)
};

/// How inter-block arrays travel (§2): as result-packet streams between
/// processing elements (the paper's choice) or through the array memories
/// (the conventional layout the 1/8-traffic claim is measured against).
enum class ArrayRouting { Stream, Memory };

/// Which machine scheduler executes the lowered graph.  Every kind is
/// bit-identical in all MachineResult fields; they differ only in how the
/// statically known schedule of §3 is (re)discovered at runtime.
enum class SchedulerKind {
  EventDriven,  ///< time wheel + ready queue (the default)
  Synchronous,  ///< full cell rescan per instruction time
  Reference,    ///< naive reference stepper (oracle)
  /// Steady-state backend: event-driven fill/drain with the periodic middle
  /// fast-forwarded in bulk, through the sched::SteadySchedule IR's value
  /// loop or, on graphs the IR declines whose control is input-independent,
  /// by firing-tape replay.  Falls back to EventDriven (see
  /// CompiledFallback) when control depends on input data or array memory.
  Compiled,
};

/// What SchedulerKind::Compiled does when it cannot fast-forward the graph
/// at all (control steered by input data or array memory), or the run
/// shape forces per-token execution (the latter always runs EventDriven).
enum class CompiledFallback {
  EventDriven,  ///< run EventDriven, record the reason in result.compiled
  Error,        ///< throw sched::ScheduleDeclined
};

struct CompileOptions {
  ForallScheme forallScheme = ForallScheme::Pipeline;
  ForIterScheme forIterScheme = ForIterScheme::Auto;
  /// Dependence distance k for the companion scheme (power of two >= 2).
  int companionSkip = 2;
  /// Batch factor B for the LongFifo scheme (independent interleaved
  /// instances; the cycle gets a FIFO making it 2B stages long).
  int interleave = 4;
  BalanceMode balanceMode = BalanceMode::Optimal;
  ArrayRouting routing = ArrayRouting::Stream;
  /// Load-time values for scalar parameters (bound as literal operands).
  std::map<std::string, Value> scalarBindings;
  /// Drop cells that cannot reach an output.
  bool prune = true;
  /// Lower BoolSeq/IndexSeq generators to machine-level counter loops
  /// (Todd's construction).  The resulting counters are free-running, so run
  /// such programs on the machine engine with expected output counts.
  bool lowerControl = false;
  /// Lower composite FIFOs before returning (kept optional so graphs stay
  /// readable in DOT form).  Which lowering depends on `fuseFifos`.
  bool lower = false;
  /// With `lower`: fuse buffering chains into composite ring-buffer FIFO
  /// cells (opt::fuseFifos) instead of expanding them into identity chains
  /// (dfg::expandFifos).  Same outputs and output times; O(1) cells and
  /// packets per chain instead of O(depth).  Turn off to make per-cell
  /// statistics refer to real instruction cells.
  bool fuseFifos = true;
};

/// Canonical, collision-free text encoding of a CompileOptions — the options
/// half of the serving layer's compile-once cache key (src/serve/), kept next
/// to the struct so a new option cannot be added without meeting its
/// fingerprint.  Two options compiling identically may still key apart (the
/// cache only loses a little sharing); two options keying together MUST
/// compile identically.
inline std::string optionsKey(const CompileOptions& o) {
  std::string k;
  k += "fa=" + std::to_string(static_cast<int>(o.forallScheme));
  k += ";fi=" + std::to_string(static_cast<int>(o.forIterScheme));
  k += ";skip=" + std::to_string(o.companionSkip);
  k += ";il=" + std::to_string(o.interleave);
  k += ";bal=" + std::to_string(static_cast<int>(o.balanceMode));
  k += ";rt=" + std::to_string(static_cast<int>(o.routing));
  k += ";prune=" + std::to_string(o.prune);
  k += ";lc=" + std::to_string(o.lowerControl);
  k += ";lo=" + std::to_string(o.lower);
  k += ";fuse=" + std::to_string(o.fuseFifos);
  for (const auto& [name, v] : o.scalarBindings)
    k += ";b:" + name + "=" + v.str();
  return k;
}

}  // namespace valpipe::core
