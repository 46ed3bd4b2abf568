#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>

#include "core/phases.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::vector<std::size_t> cheapest(const std::vector<double>& cost,
                                  double share) {
  std::vector<std::size_t> idx(cost.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return cost[a] < cost[b]; });
  const auto keep = static_cast<std::size_t>(
      std::ceil(share * static_cast<double>(cost.size())));
  idx.resize(std::min(idx.size(), std::max<std::size_t>(keep, 1)));
  return idx;
}

BestTimes bestTimes(const std::vector<std::vector<double>>& perOp) {
  BestTimes b;
  for (const std::vector<double>& times : perOp) {
    const std::vector<std::size_t> kept = cheapest(times, kKeepShare);
    if (kept.empty()) continue;
    double sum = 0;
    for (std::size_t i : kept) {
      sum += times[i];
      b.keptMs.push_back(times[i] * 1e3);
    }
    b.seconds += sum / static_cast<double>(kept.size());
    ++b.operations;
  }
  return b;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

Built compileTraced(const std::string& source, const core::CompileOptions& opts,
                    Tracer& t, std::uint64_t op, Counters& c) {
  val::Module mod;
  {
    Scope s(t, "val.frontend", op);
    mod = core::frontend(source);
  }
  Built b;
  {
    Scope s(t, "core.build_graph", op);
    b.prog = core::phases::buildGraph(mod, opts);
  }
  const std::size_t built = b.prog.graph.size();
  {
    Scope s(t, "core.normalize", op);
    core::phases::normalize(b.prog, opts);
  }
  {
    Scope s(t, "core.balance", op);
    core::phases::balance(b.prog, opts);
  }
  const std::size_t balanced = b.prog.graph.size();
  {
    Scope s(t, "core.lower", op);
    core::phases::lower(b.prog, opts);
  }
  {
    Scope s(t, "exec.flatten", op);
    b.eg = std::make_unique<exec::ExecutableGraph>(b.prog.graph);
  }
  if (t.on()) {
    c.add("core.cells_built", static_cast<double>(built));
    c.add("core.cells_balanced", static_cast<double>(balanced));
    c.add("core.cells_lowered", static_cast<double>(b.eg->size()));
    c.add("core.buffer_stages",
          static_cast<double>(b.prog.balance.buffersInserted));
    if (b.prog.fusion) {
      c.add("opt.chains_fused", static_cast<double>(b.prog.fusion->chainsFused));
      c.add("opt.cells_absorbed",
            static_cast<double>(b.prog.fusion->cellsAbsorbed));
    }
  }
  return b;
}

std::string compareStream(const std::vector<Value>& got,
                          const std::vector<Value>& want, double relTol) {
  if (got.size() != want.size()) {
    std::ostringstream os;
    os << "length " << got.size() << ", expected " << want.size();
    return os.str();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == want[i]) continue;
    if (relTol > 0 && got[i].isNumeric() && want[i].isNumeric()) {
      const double a = got[i].toReal(), b = want[i].toReal();
      const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
      if (std::fabs(a - b) <= relTol * scale) continue;
    }
    std::ostringstream os;
    os << "element " << i << " is " << got[i].str() << ", expected "
       << want[i].str();
    return os.str();
  }
  return {};
}

std::vector<Value> repeatWaves(const std::vector<Value>& wave, int waves) {
  std::vector<Value> out;
  out.reserve(wave.size() * static_cast<std::size_t>(waves));
  for (int w = 0; w < waves; ++w) out.insert(out.end(), wave.begin(), wave.end());
  return out;
}

val::ArrayVal randomArray(val::Range range, std::uint64_t seed, double lo,
                          double hi) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  val::ArrayVal a;
  a.lo = range.lo;
  a.elems.reserve(static_cast<std::size_t>(range.length()));
  for (std::int64_t i = 0; i < range.length(); ++i)
    a.elems.push_back(Value(dist(rng)));
  return a;
}

bool reassociated(const core::CompiledProgram& p) {
  return std::any_of(p.blocks.begin(), p.blocks.end(), [](const auto& b) {
    return b.scheme.find("companion") != std::string::npos;
  });
}

}  // namespace perfbench
