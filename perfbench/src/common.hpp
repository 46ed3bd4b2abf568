// Shared pieces of the three workloads: run arguments, the report every run
// prints, order statistics, the traced compile pipeline and the output check.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "exec/executable_graph.hpp"
#include "support/value.hpp"
#include "trace.hpp"
#include "val/eval.hpp"

namespace perfbench {

using namespace valpipe;

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-check mode: corrupt one expected value, so that one operation
  /// fails its check in every round.
  bool corrupt = false;
};

// --- per-layer accumulation ------------------------------------------------

/// Sums of per-layer counts over the traced operations of a run.
struct Counters {
  std::map<std::string, double> sum;
  void add(const std::string& k, double v) { sum[k] += v; }
  double get(const std::string& k) const {
    auto it = sum.find(k);
    return it == sum.end() ? 0.0 : it->second;
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports.  `e2e` goes into the JSON line of an untraced run,
/// `layer` into that of a traced run, and `notes` are printed as readable
/// lines above it (named figures such as figs_e2e_s).
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<Metric> notes;
  std::vector<std::string> failures;  ///< one line per failed operation

  // Traced runs only: the spans and per-layer counts of the traced
  // operations, which main turns into the shared per-layer metrics.
  Tracer tracer;
  Counters counters;
  std::int64_t tracedOps = 0;

  void fail(const std::string& why) {
    ++failed;
    correct = false;
    failures.push_back(why);
  }
};

// --- order statistics ------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// This host (a 4-vCPU VM) swings between contended and uncontended states
/// that last from seconds to minutes: the same paper_figs round takes
/// 0.20 s in one and 0.31-0.35 s in the other, and a run's median reads how
/// long the run happened to spend in each.  The end-to-end metrics
/// therefore come from the least contended share of a run: the fastest
/// kKeepShare of each operation's repeated times, or of serve_wire's
/// windows.
inline constexpr double kKeepShare = 0.1;

/// Indices of the ceil(share * n) smallest entries of `cost` (at least one
/// when `cost` is not empty), in increasing order of cost.
std::vector<std::size_t> cheapest(const std::vector<double>& cost, double share);

/// Per operation, the fastest kKeepShare of its repeated times.
struct BestTimes {
  double seconds = 0;           ///< sum over operations of their kept mean
  std::size_t operations = 0;   ///< operations with at least one time
  std::vector<double> keptMs;   ///< every kept time, in ms
};
BestTimes bestTimes(const std::vector<std::vector<double>>& perOp);

/// Peak resident set of this process, in MiB.
double peakRssMb();

/// Runs `setup` `reps` times, keeping the last result, and returns the
/// median wall time of one set-up in seconds.
template <class F>
double timedSetups(int reps, F&& setup) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    setup();
    t.push_back(secondsSince(t0));
  }
  return median(std::move(t));
}

// --- compile pipeline ------------------------------------------------------

/// A program compiled cold, frontend through flattening.
struct Built {
  core::CompiledProgram prog;
  std::unique_ptr<exec::ExecutableGraph> eg;
};

/// core::frontend, core::phases::{buildGraph, normalize, balance, lower}
/// and exec::ExecutableGraph, each under its own span; IR sizes go into
/// `c` when the tracer is on.  `opts` must ask for lowering (opts.lower).
Built compileTraced(const std::string& source, const core::CompileOptions& opts,
                    Tracer& t, std::uint64_t op, Counters& c);

// --- checks ----------------------------------------------------------------

/// Empty when `got` equals `want`; otherwise the first difference.  With
/// relTol > 0, reals may differ by relTol relative to the larger magnitude
/// (floored at 1) — for programs the companion scheme reassociates.
std::string compareStream(const std::vector<Value>& got,
                          const std::vector<Value>& want, double relTol);

/// `wave` repeated `waves` times: the expected stream of a multi-wave run
/// over identical waves.
std::vector<Value> repeatWaves(const std::vector<Value>& wave, int waves);

/// Uniform reals in [lo, hi) over `range`, from `seed`.
val::ArrayVal randomArray(val::Range range, std::uint64_t seed, double lo,
                          double hi);

/// True when any block of `p` was mapped by the companion scheme.
bool reassociated(const core::CompiledProgram& p);

// --- workloads -------------------------------------------------------------

Report runPaperFigs(const Args& a);
Report runServeWire(const Args& a);
Report runCompileMany(const Args& a);

}  // namespace perfbench
