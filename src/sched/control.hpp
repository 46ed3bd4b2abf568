// Control-steering analysis: which values can reach a gate port or a merge
// selector.
//
// A cell's *enabling* decisions read values in exactly two places: the gate
// port of a gated cell (which tagged destinations a firing needs free) and
// port 0 of a merge (which data port it waits for).  Every other value only
// flows into arithmetic and output streams.  So whether a run's timing can
// depend on its input data is a reachability question over the operand
// arcs, answered once per graph:
//
//   inputSteersControl — some Input value (directly, or through an
//                        array-memory region it is stored into) reaches a
//                        control port.  Lane-batched serving runs such
//                        programs solo, and the compiled scheduler declines
//                        them (Decline::InputControl);
//   controlCone        — the cells whose results can reach a control port.
//                        On an input-independent graph these carry compile-
//                        time sequences (BoolSeq/IndexSeq patterns through
//                        Id/FIFO and arithmetic cells), which is what lets
//                        the compiled scheduler compare control state across
//                        snapshots and replay recorded firings.
#pragma once

#include <vector>

#include "exec/executable_graph.hpp"

namespace valpipe::sched {

/// True when a value produced by an Input cell can reach a gate port or a
/// merge selector, following operand arcs and store-to-fetch regions.
bool inputSteersControl(const exec::ExecutableGraph& eg);

/// Per cell: true when its result can reach a gate port or merge selector
/// (the backward cone of the graph's control ports, feedback included).
std::vector<bool> controlCone(const exec::ExecutableGraph& eg);

}  // namespace valpipe::sched
