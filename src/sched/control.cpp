#include "sched/control.hpp"

#include <cstdint>

namespace valpipe::sched {

namespace {

bool isControlPort(const exec::ExecutableGraph& eg, const exec::Dest& d) {
  return d.port == exec::kGatePort ||
         (d.port == 0 && eg.cell(d.consumer).op == dfg::Op::Merge);
}

}  // namespace

bool inputSteersControl(const exec::ExecutableGraph& eg) {
  std::vector<bool> seen(eg.size(), false);
  std::vector<std::uint32_t> work;
  const auto visit = [&](std::uint32_t c) {
    if (!seen[c]) {
      seen[c] = true;
      work.push_back(c);
    }
  };
  for (std::uint32_t c = 0; c < eg.size(); ++c)
    if (eg.cell(c).op == dfg::Op::Input) visit(c);
  while (!work.empty()) {
    const exec::Cell& cl = eg.cell(work.back());
    work.pop_back();
    for (const exec::Dest& d : eg.allDests(cl)) {
      if (isControlPort(eg, d)) return true;
      visit(d.consumer);
    }
    // A store extends the region its fetchers read.
    if (cl.op == dfg::Op::AmStore)
      for (std::uint32_t f : eg.fetchersOf(cl)) visit(f);
  }
  return false;
}

std::vector<bool> controlCone(const exec::ExecutableGraph& eg) {
  std::vector<bool> in(eg.size(), false);
  std::vector<std::uint32_t> work;
  const auto visit = [&](std::uint32_t c) {
    if (!in[c]) {
      in[c] = true;
      work.push_back(c);
    }
  };
  for (std::uint32_t c = 0; c < eg.size(); ++c)
    for (const exec::Dest& d : eg.allDests(eg.cell(c)))
      if (isControlPort(eg, d)) visit(c);
  while (!work.empty()) {
    const exec::Cell& cl = eg.cell(work.back());
    work.pop_back();
    const int ports = cl.numPorts + (cl.hasGate ? 1 : 0);
    for (int p = 0; p < ports; ++p) {
      const exec::Operand& o =
          eg.operand(cl, p == cl.numPorts ? exec::kGatePort : p);
      if (!o.isLiteral()) visit(o.producer);
    }
  }
  return in;
}

}  // namespace valpipe::sched
