// Timed simulator of the static dataflow machine.
//
// Instruction cells obey the §2/§3 firing discipline: a cell is enabled when
// every required operand has arrived, the destinations of *this* firing are
// free (its previous result packets have been acknowledged), and — under a
// finite function-unit pool — a unit of its class is available.  Enabling
// decisions are two-phase (they read the state at the start of the
// instruction time), which yields exactly the paper's maximum repetition rate
// of one firing per two instruction times under the unit profile, and k/S for
// a feedback cycle of S stages carrying a dependence distance of k.
//
// The simulator runs on a flattened exec::ExecutableGraph and offers four
// schedulers with bit-identical results:
//   - EventDriven (default): a cell is re-examined only when a token arrives,
//     an acknowledge frees a destination, a function unit frees, or its own
//     firing completes — work scales with firings, not cells x cycles;
//   - Synchronous: rescans every cell each instruction time on the flat
//     representation (diagnostic middle ground);
//   - Reference: the original pointer-walking stepper over dfg::Graph, kept
//     verbatim as the verification oracle and bench baseline (selected via
//     RunOptions::scheduler — the one way to pick a scheduler);
//   - Compiled: the steady-state backend — event-driven fill and drain with
//     the periodic middle of the run fast-forwarded whole periods at a time
//     (machine/engine_compiled), values reconstructed by the
//     sched::SteadySchedule IR's loop or, on graphs the IR declines whose
//     control is input-independent, by replaying a recorded firing tape;
//     plain EventDriven when control depends on input data or array memory.
//
// The graph must carry no unresolved sugar beyond Op::Fifo, which the
// simulator accepts in either lowered form: expanded into an Id chain
// (dfg::expandFifos), where cell counts and rates refer to real instruction
// cells; or fused as one composite ring-buffer cell per chain
// (opt::fuseFifos, the compiler default), fired with the expanded chain's
// exact external timing via exec/fifo.hpp — same outputs, same output times,
// O(1) cells and packets per chain instead of O(depth).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "dfg/graph.hpp"
#include "exec/packet_counters.hpp"
#include "fault/plan.hpp"
#include "machine/config.hpp"
#include "machine/placement.hpp"
#include "run/io.hpp"
#include "support/value.hpp"

namespace valpipe::exec {
class ExecutableGraph;
}

namespace valpipe::machine {

/// Packet traffic counters (§2's packet communication architecture).
using PacketCounters = exec::PacketCounters;

/// Which scheduler drives the simulation (core/options.hpp, so compile-time
/// tooling can name a scheduler without linking the machine).  All kinds
/// produce identical results; they differ only in how much work they spend
/// rediscovering the statically known schedule.
using SchedulerKind = core::SchedulerKind;

/// Machine-run options: the shared run vocabulary (waves, amInitial,
/// maxCycles) plus the timed-engine knobs.
struct RunOptions : run::RunOptions {
  /// Expected element count per Output stream for the whole run; when given,
  /// the run stops as soon as all outputs are complete.
  std::map<std::string, std::int64_t> expectedOutputs;
  /// Cell-to-PE assignment; result packets crossing PEs pay
  /// cfg.interPeDelay and are counted as distribution-network traffic.
  std::optional<Placement> placement;
  SchedulerKind scheduler = SchedulerKind::EventDriven;
  /// What SchedulerKind::Compiled does on a declined graph.
  core::CompiledFallback compiledFallback = core::CompiledFallback::EventDriven;
};

struct MachineResult {
  run::StreamMap outputs;
  run::StreamMap amFinal;
  /// Arrival instruction-time of each element of each output stream.
  std::map<std::string, std::vector<std::int64_t>> outputTimes;
  std::vector<std::uint64_t> firings;  ///< per cell
  std::uint64_t totalFirings = 0;
  std::int64_t cycles = 0;
  bool completed = false;  ///< expected outputs all arrived (or none expected)
  std::string note;
  PacketCounters packets;
  /// Busy instruction-times accumulated per FU class (for utilization).
  std::array<std::uint64_t, 4> fuBusy{};
  /// Firings per processing element (when a Placement was supplied).
  std::vector<std::uint64_t> pePackets;
  /// What the fault injector did (all zero without a fault::Plan).
  fault::Counters faults;

  /// What SchedulerKind::Compiled did.  Deliberately NOT part of the
  /// scheduler-equivalence contract (testing.hpp expectIdentical): the
  /// compared fields above stay bit-identical across kinds, this one
  /// describes the mechanism.
  struct CompiledInfo {
    bool requested = false;      ///< run asked for SchedulerKind::Compiled
    bool accepted = false;       ///< the schedule IR accepted the graph
    bool fastForwarded = false;  ///< >= 1 steady-state jump actually taken
    bool vectorized = false;     ///< value loop ran the all-real fast path
    /// Skipped values came from replaying a recorded firing tape (a
    /// control-static graph the IR declined) rather than the IR value loop.
    bool tapeReplay = false;
    std::string reason;          ///< decline / no-jump diagnostic ("" if none)
    std::int64_t hyperPeriod = 0;      ///< static IR period (unit profile)
    std::int64_t detectedPeriod = 0;   ///< measured steady period (cycles)
    std::int64_t windowsSkipped = 0;   ///< hyper-periods fast-forwarded
    std::int64_t cyclesSkipped = 0;    ///< instruction times fast-forwarded
    std::uint64_t firingsSkipped = 0;  ///< firings accounted in bulk
  };
  CompiledInfo compiled;

  /// Results per instruction time over the whole run for `stream`.
  double overallRate(const std::string& stream) const;
  /// Steady-state rate measured between the 25% and 75% arrival marks,
  /// excluding pipeline fill/drain transients.
  double steadyRate(const std::string& stream) const;
};

/// Simulates `lowered` under `cfg` with the scheduler chosen in `opts`.
/// This is the one entry point; the verification oracle is reached with
/// SchedulerKind::Reference (the old simulateReference free function is
/// gone).
MachineResult simulate(const dfg::Graph& lowered, const MachineConfig& cfg,
                       const run::StreamMap& inputs,
                       const RunOptions& opts = {});

/// Same run, but over a pre-flattened `eg` (which must be
/// ExecutableGraph(lowered)).  simulate(lowered, ...) flattens per call;
/// this overload lets a long-lived caller — the serving layer's
/// compile-once program cache — flatten once and share the immutable
/// ExecutableGraph across any number of concurrent runs.  `lowered` is
/// still consulted for the Reference scheduler, trace metadata, and the
/// stall diagnosis.
MachineResult simulate(const dfg::Graph& lowered,
                       const exec::ExecutableGraph& eg,
                       const MachineConfig& cfg, const run::StreamMap& inputs,
                       const RunOptions& opts = {});

}  // namespace valpipe::machine
