#include "sched/schedule.hpp"

#include <algorithm>
#include <sstream>

#include "sched/control.hpp"

namespace valpipe::sched {

const char* declineName(Decline d) {
  switch (d) {
    case Decline::None: return "accepted";
    case Decline::Gate: return "gated-delivery";
    case Decline::Merge: return "data-dependent-merge";
    case Decline::ArrayMemory: return "array-memory";
    case Decline::Feedback: return "feedback-cycle";
    case Decline::InitialToken: return "initial-token";
    case Decline::Unbalanced: return "unbalanced";
    case Decline::InputControl: return "data-dependent-control";
  }
  return "?";
}

namespace {

SteadySchedule declined(Decline d, std::string detail) {
  SteadySchedule s;
  s.accepted = false;
  s.decline = d;
  s.detail = std::move(detail);
  return s;
}

std::string cellName(const exec::ExecutableGraph& eg, std::uint32_t c) {
  std::ostringstream os;
  os << "cell " << c << " (" << dfg::mnemonic(eg.cell(c).op);
  if (eg.cell(c).stream >= 0) os << " " << eg.streamName(eg.cell(c));
  os << ")";
  return os.str();
}

/// The IR proper: structural acceptance, topological order and ASAP slots.
SteadySchedule structuralSchedule(const exec::ExecutableGraph& eg) {
  const auto n = static_cast<std::uint32_t>(eg.size());

  // --- structural acceptance: the firing pattern must be data-independent.
  for (std::uint32_t c = 0; c < n; ++c) {
    const exec::Cell& cell = eg.cell(c);
    if (cell.hasGate || cell.alwaysEnd != cell.destEnd)
      return declined(Decline::Gate,
                      cellName(eg, c) + " routes results by a runtime gate");
    if (cell.op == dfg::Op::Merge)
      return declined(Decline::Merge,
                      cellName(eg, c) +
                          " consumes operands by a runtime merge control");
    if (cell.op == dfg::Op::AmStore || cell.op == dfg::Op::AmFetch)
      return declined(Decline::ArrayMemory,
                      cellName(eg, c) +
                          " has data-dependent array-memory availability");
    for (int p = 0; p < cell.numPorts; ++p)
      if (eg.operand(cell, p).hasInitial)
        return declined(Decline::InitialToken,
                        cellName(eg, c) +
                            " carries a load-time token (feedback bootstrap)");
  }

  // --- topological order over operand arcs; a leftover cell is on a cycle.
  std::vector<std::uint32_t> indeg(n, 0);
  for (std::uint32_t c = 0; c < n; ++c) {
    const exec::Cell& cell = eg.cell(c);
    for (int p = 0; p < cell.numPorts; ++p)
      if (!eg.operand(cell, p).isLiteral()) ++indeg[c];
  }
  SteadySchedule s;
  s.accepted = true;
  s.topo.reserve(n);
  for (std::uint32_t c = 0; c < n; ++c)
    if (indeg[c] == 0) s.topo.push_back(c);
  for (std::size_t i = 0; i < s.topo.size(); ++i) {
    const exec::Cell& cell = eg.cell(s.topo[i]);
    for (const exec::Dest& d : eg.alwaysDests(cell))
      if (--indeg[d.consumer] == 0) s.topo.push_back(d.consumer);
  }
  if (s.topo.size() != n) {
    std::uint32_t stuck = 0;
    for (std::uint32_t c = 0; c < n; ++c)
      if (indeg[c] != 0) { stuck = c; break; }
    return declined(Decline::Feedback,
                    cellName(eg, stuck) +
                        " sits on a feedback cycle (rate k/S, §7)");
  }

  // --- ASAP slots.  A producer's slot is the stage its result leaves from:
  // a composite depth-k FIFO contributes k stages, everything else one.
  s.slot.assign(n, 0);
  s.arcOffset.assign(eg.slotCount(), 0);
  for (std::uint32_t c : s.topo) {
    const exec::Cell& cell = eg.cell(c);
    std::int64_t ready = -1;  // -1 => source / all-literal cell
    bool first = true;
    bool balanced = true;
    for (int p = 0; p < cell.numPorts; ++p) {
      const exec::Operand& o = eg.operand(cell, p);
      if (o.isLiteral()) continue;
      const std::int64_t at = s.slot[o.producer];
      if (first) { ready = at; first = false; }
      else if (at != ready) balanced = false;
      ready = std::max(ready, at);
    }
    if (!balanced)
      return declined(Decline::Unbalanced,
                      cellName(eg, c) +
                          " reconverges operands at unequal depth (§8: "
                          "insert FIFOs to balance)");
    const std::int64_t cost =
        cell.op == dfg::Op::Fifo && cell.fifoDepth >= 2 ? cell.fifoDepth : 1;
    s.slot[c] = ready < 0 ? (dfg::isSource(cell.op) ? 0 : cost) : ready + cost;
    s.depthMax = std::max(s.depthMax, s.slot[c]);
    for (int p = 0; p < cell.numPorts; ++p) {
      const exec::Operand& o = eg.operand(cell, p);
      if (!o.isLiteral())
        s.arcOffset[eg.slotOf(cell, p)] = s.slot[c] - s.slot[o.producer];
    }
  }
  s.phase.assign(n, 0);
  for (std::uint32_t c = 0; c < n; ++c)
    s.phase[c] = static_cast<std::int32_t>(s.slot[c] % s.hyperPeriod);
  return s;
}

}  // namespace

SteadySchedule computeSteadySchedule(const exec::ExecutableGraph& eg) {
  if (inputSteersControl(eg))
    return declined(Decline::InputControl,
                    "input data reaches a gate or merge control port");
  SteadySchedule s = structuralSchedule(eg);
  s.controlStatic = true;
  for (std::uint32_t c = 0; c < eg.size(); ++c)
    if (eg.cell(c).op == dfg::Op::AmStore || eg.cell(c).op == dfg::Op::AmFetch)
      s.controlStatic = false;
  return s;
}

std::string SteadySchedule::explain(const exec::ExecutableGraph& eg) const {
  std::ostringstream os;
  if (!accepted) {
    os << "steady schedule: declined (" << declineName(decline) << ")\n"
       << "  " << detail << "\n"
       << "  the compiled scheduler falls back to event-driven execution";
    if (controlStatic)
      os << ";\n  control does not depend on input data, so it fast-forwards"
            " periodic\n  stretches by replaying a recorded firing tape";
    os << "\n";
    return os.str();
  }
  os << "steady schedule: accepted\n"
     << "  hyper-period: " << hyperPeriod
     << " instruction times (unit profile; 1 firing per cell per period)\n"
     << "  pipeline depth: " << depthMax << " stage"
     << (depthMax == 1 ? "" : "s") << "\n"
     << "  cell  slot  phase  op\n";
  for (std::uint32_t c = 0; c < eg.size(); ++c) {
    const exec::Cell& cell = eg.cell(c);
    os << "  " << c << "\t" << slot[c] << "\t" << phase[c] << "\t"
       << dfg::mnemonic(cell.op);
    if (cell.op == dfg::Op::Fifo && cell.fifoDepth >= 2)
      os << "[" << cell.fifoDepth << "]";
    if (cell.stream >= 0) os << " " << eg.streamName(cell);
    bool any = false;
    for (int p = 0; p < cell.numPorts; ++p) {
      const exec::Operand& o = eg.operand(cell, p);
      if (o.isLiteral()) continue;
      os << (any ? ", " : "   <- ") << o.producer << " (+"
         << arcOffset[eg.slotOf(cell, p)] << ")";
      any = true;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace valpipe::sched
