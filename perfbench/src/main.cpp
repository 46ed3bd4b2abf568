// valpipe_perfbench: one run of one workload.
//
//   valpipe_perfbench --workload paper_figs|serve_wire|compile_many
//                     --seed N --seconds S --trace 0|1 [--corrupt]
//
// Prints readable lines, then as its last line one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.  A traced run also writes
// its spans to .bench_out/.  Exits 1 when any operation failed its check.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace perfbench {
namespace {

/// Where a traced run writes its spans, relative to the working directory.
constexpr const char* kTraceDir = ".bench_out";

/// Every per-layer metric a traced run prints, whichever workload it runs;
/// a metric the workload does not exercise reads 0.  Keep in step with the
/// per_layer list of BENCHMARK.json.
struct LayerDef {
  const char* name;
  const char* unit;
};
const LayerDef kLayerMetrics[] = {
    {"val.frontend_ms", "ms"},
    {"core.build_graph_ms", "ms"},
    {"core.normalize_ms", "ms"},
    {"core.balance_ms", "ms"},
    {"core.lower_ms", "ms"},
    {"core.cells_built", "cells"},
    {"core.cells_balanced", "cells"},
    {"core.cells_lowered", "cells"},
    {"core.buffer_stages", "count"},
    {"opt.chains_fused", "count"},
    {"opt.cells_absorbed", "count"},
    {"exec.flatten_ms", "ms"},
    {"sched.ir_ms", "ms"},
    {"sched.figs_accepted", "count"},
    {"sched.firings_skipped", "count"},
    {"machine.fig2_s", "s"},
    {"machine.fig3_s", "s"},
    {"machine.fig4_s", "s"},
    {"machine.fig5_s", "s"},
    {"machine.fig6_s", "s"},
    {"machine.fig7_s", "s"},
    {"machine.fig8_s", "s"},
    {"machine.live_firings", "count"},
    {"machine.ns_per_live_firing", "ns"},
    {"machine.result_packets", "count"},
    {"machine.ack_packets", "count"},
    {"machine.sim_cycles", "instr_times"},
    {"machine.decline_overhead_ms", "ms"},
    {"machine.run_ms", "ms"},
    {"serve.open_us", "us"},
    {"serve.push_us", "us"},
    {"serve.pull_us", "us"},
    {"serve.lanes_per_run", "lanes"},
    {"serve.batch_fallbacks", "per_1k_sessions"},
    {"serve.wire_encode_us", "us"},
    {"serve.wire_parse_us", "us"},
    {"serve.bytes_per_request", "bytes"},
    {"serve.cache_misses", "count"},
    {"bench.self_ms", "ms"},
    {"val.self_ms", "ms"},
    {"core.self_ms", "ms"},
    {"exec.self_ms", "ms"},
    {"sched.self_ms", "ms"},
    {"machine.self_ms", "ms"},
    {"serve.self_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

/// Span name -> per-layer metric holding its mean time per traced op, in ms.
const std::pair<const char*, const char*> kSpanMetrics[] = {
    {"val.frontend", "val.frontend_ms"},   {"core.build_graph", "core.build_graph_ms"},
    {"core.normalize", "core.normalize_ms"}, {"core.balance", "core.balance_ms"},
    {"core.lower", "core.lower_ms"},       {"exec.flatten", "exec.flatten_ms"},
    {"sched.ir", "sched.ir_ms"},           {"machine.simulate", "machine.run_ms"},
};

/// Counters reported as their mean per traced op.
const char* const kPerOpCounters[] = {
    "core.cells_built",      "core.cells_balanced",  "core.cells_lowered",
    "core.buffer_stages",    "opt.chains_fused",     "opt.cells_absorbed",
    "sched.firings_skipped", "machine.live_firings", "machine.result_packets",
    "machine.ack_packets",   "machine.sim_cycles",
};

/// The shared per-layer metrics, from the spans and counters of the traced
/// operations; workload-specific ones already in `rep.layer` win.
std::vector<Metric> layerMetrics(const Report& rep) {
  std::map<std::string, double> v;
  const double ops = static_cast<double>(std::max<std::int64_t>(rep.tracedOps, 1));
  const auto totals = rep.tracer.totals();
  for (const auto& [span, metric] : kSpanMetrics) {
    auto it = totals.find(span);
    if (it != totals.end()) v[metric] = it->second * 1e3 / ops;
  }
  for (const char* k : kPerOpCounters)
    if (rep.counters.sum.count(k)) v[k] = rep.counters.get(k) / ops;
  if (auto it = totals.find("machine.simulate"); it != totals.end())
    v["machine.ns_per_live_firing"] =
        it->second * 1e9 / std::max(1.0, rep.counters.get("machine.live_firings"));
  for (const auto& [layer, self] : rep.tracer.layerSelf())
    v[layer + ".self_ms"] = self * 1e3 / ops;
  v["trace.spans"] = static_cast<double>(rep.tracer.spans().size());
  for (const Metric& m : rep.layer) v[m.name] = m.value;

  std::vector<Metric> out;
  for (const LayerDef& d : kLayerMetrics) {
    auto it = v.find(d.name);
    out.push_back({d.name, it == v.end() ? 0.0 : it->second, d.unit});
  }
  return out;
}

void printJson(const Report& rep, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              rep.correct ? "true" : "false",
              static_cast<long long>(rep.attempted),
              static_cast<long long>(rep.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "valpipe_perfbench: %s\nusage: valpipe_perfbench --workload "
               "paper_figs|serve_wire|compile_many --seed N --seconds S "
               "--trace 0|1 [--corrupt]\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--corrupt") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else usage(("unknown flag " + k).c_str());
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parseArgs(argc, argv);
  Report rep;
  try {
    if (a.workload == "paper_figs") rep = runPaperFigs(a);
    else if (a.workload == "serve_wire") rep = runServeWire(a);
    else if (a.workload == "compile_many") rep = runCompileMany(a);
    else usage("unknown workload");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "valpipe_perfbench: %s: %s\n", a.workload.c_str(),
                 e.what());
    return 1;
  }

  std::printf("workload %s  seed %u  seconds %g  trace %d%s\n",
              a.workload.c_str(), a.seed, a.seconds, a.trace ? 1 : 0,
              a.corrupt ? "  (corrupted expectations)" : "");
  std::printf("attempted %lld  failed %lld\n",
              static_cast<long long>(rep.attempted),
              static_cast<long long>(rep.failed));
  for (std::size_t i = 0; i < rep.failures.size() && i < 5; ++i)
    std::printf("FAILED %s\n", rep.failures[i].c_str());
  for (const Metric& m : rep.e2e)
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const Metric& m : rep.notes)
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());

  if (a.trace) {
    ::mkdir(kTraceDir, 0755);
    const std::string path = std::string(kTraceDir) + "/trace_" + a.workload +
                             "_seed" + std::to_string(a.seed) + ".json";
    if (!rep.tracer.writeChromeTrace(path))
      std::fprintf(stderr, "valpipe_perfbench: cannot write %s\n", path.c_str());
    const std::vector<Metric> layer = layerMetrics(rep);
    for (const Metric& m : layer)
      std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    printJson(rep, layer);
  } else {
    printJson(rep, rep.e2e);
  }
  return rep.correct ? 0 : 1;
}
