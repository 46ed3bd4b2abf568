// valc — the Val-to-static-dataflow compiler driver.
//
//   valc [options] <file.val>
//     --scheme todd|companion|longfifo|auto   for-iter mapping (default auto)
//     --forall pipeline|parallel              forall mapping (default pipeline)
//     --balance none|longest|optimal          buffering mode (default optimal)
//     --skip K                                companion dependence distance
//     --batch B                               long-FIFO interleave factor
//     --routing stream|memory                 inter-block array routing
//     -O                                      fuse FIFO chains into composite
//                                             ring-buffer cells (default)
//     --no-fuse                               expand FIFOs into Id chains
//                                             (truthful per-cell statistics)
//     --lower-control                         counter loops for control seqs
//     --dot                                   print Graphviz to stdout
//     --run [waves]                           simulate with ramp inputs
//     --scheduler KIND                        machine scheduler for --run:
//                                             event | sync | reference |
//                                             compiled (all bit-identical;
//                                             compiled fast-forwards the
//                                             steady state)
//     --explain-schedule                      dump the static-schedule IR
//                                             (hyper-period, per-cell slots,
//                                             or the decline reason)
//     --classify                              only report the program class
//     --profile                               run + §3 audit + metrics JSON
//     --trace FILE                            run + Chrome trace to FILE
//     --faults SPEC                           run under a fault plan
//                                             (seed=,jitter=,delay=,
//                                             outage=CLASS@FROM+LEN,
//                                             drop-result=,dup-result=,
//                                             drop-ack=,dup-ack= per-mille)
//     --guards                                enable runtime invariant guards
//     --watchdog N                            abort + diagnose after N idle
//                                             instruction times
//     --checkpoint-every N                    snapshot engine state every N
//                                             instruction times
//     --checkpoint-file F                     save the last snapshot to F
//     --restore F                             resume the run from snapshot F
//     --retries N                             supervised run: restore the last
//                                             clean snapshot and retry (up to
//                                             N attempts) on stall/violation/
//                                             deadline
//     --deadline-ms N                         wall-clock budget per attempt
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/paths.hpp"
#include "core/compiler.hpp"
#include "dfg/dot.hpp"
#include "dfg/lower.hpp"
#include "dfg/stats.hpp"
#include "exec/executable_graph.hpp"
#include "fault/plan.hpp"
#include "guard/guard.hpp"
#include "machine/engine.hpp"
#include "sched/schedule.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/rate_report.hpp"
#include "obs/trace.hpp"
#include "opt/fuse.hpp"
#include "recover/snapshot.hpp"
#include "recover/supervisor.hpp"
#include "val/classify.hpp"

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: valc [--scheme S] [--forall F] [--balance B] [--skip K]"
               " [--batch N] [--routing R] [-O | --no-fuse] [--dot]"
               " [--run [waves]]"
               " [--scheduler event|sync|reference|compiled]"
               " [--explain-schedule] [--classify] [--profile] [--trace FILE]"
               " [--faults SPEC] [--guards] [--watchdog N]"
               " [--checkpoint-every N] [--checkpoint-file F] [--restore F]"
               " [--retries N] [--deadline-ms N] file.val\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace valpipe;
  core::CompileOptions opts;
  bool fuse = true;  // -O / --no-fuse: how FIFOs are lowered before a run
  bool dot = false, classifyOnly = false, profile = false, guards = false;
  bool explainSchedule = false;
  core::SchedulerKind scheduler = core::SchedulerKind::EventDriven;
  int runWaves = 0;
  std::int64_t watchdog = 0;
  std::string path, tracePath, faultSpec;
  bool haveFaults = false;
  std::int64_t checkpointEvery = 0, deadlineMs = 0;
  int retries = 1;
  std::string checkpointFile, restoreFile;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> std::string {
      if (a + 1 >= argc) usage();
      return argv[++a];
    };
    if (arg == "--scheme") {
      const std::string s = next();
      opts.forIterScheme = s == "todd"      ? core::ForIterScheme::Todd
                           : s == "companion" ? core::ForIterScheme::Companion
                           : s == "longfifo"  ? core::ForIterScheme::LongFifo
                           : s == "auto"      ? core::ForIterScheme::Auto
                                              : (usage(), core::ForIterScheme::Auto);
    } else if (arg == "--forall") {
      const std::string s = next();
      opts.forallScheme = s == "parallel" ? core::ForallScheme::Parallel
                          : s == "pipeline" ? core::ForallScheme::Pipeline
                                            : (usage(), core::ForallScheme::Pipeline);
    } else if (arg == "--balance") {
      const std::string s = next();
      opts.balanceMode = s == "none"      ? core::BalanceMode::None
                         : s == "longest" ? core::BalanceMode::LongestPath
                         : s == "optimal" ? core::BalanceMode::Optimal
                                          : (usage(), core::BalanceMode::Optimal);
    } else if (arg == "--skip") {
      opts.companionSkip = std::atoi(next().c_str());
    } else if (arg == "--batch") {
      opts.interleave = std::atoi(next().c_str());
    } else if (arg == "--routing") {
      const std::string s = next();
      opts.routing = s == "memory" ? core::ArrayRouting::Memory
                                   : core::ArrayRouting::Stream;
    } else if (arg == "-O") {
      fuse = true;
    } else if (arg == "--no-fuse") {
      fuse = false;
    } else if (arg == "--lower-control") {
      opts.lowerControl = true;
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--classify") {
      classifyOnly = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--trace") {
      tracePath = next();
    } else if (arg == "--faults") {
      faultSpec = next();
      haveFaults = true;
    } else if (arg == "--scheduler") {
      const std::string s = next();
      scheduler = s == "event"       ? core::SchedulerKind::EventDriven
                  : s == "sync"      ? core::SchedulerKind::Synchronous
                  : s == "reference" ? core::SchedulerKind::Reference
                  : s == "compiled"  ? core::SchedulerKind::Compiled
                                     : (usage(), core::SchedulerKind::EventDriven);
    } else if (arg == "--explain-schedule") {
      explainSchedule = true;
    } else if (arg == "--guards") {
      guards = true;
    } else if (arg == "--watchdog") {
      watchdog = std::atoll(next().c_str());
    } else if (arg == "--checkpoint-every") {
      checkpointEvery = std::atoll(next().c_str());
    } else if (arg == "--checkpoint-file") {
      checkpointFile = next();
    } else if (arg == "--restore") {
      restoreFile = next();
    } else if (arg == "--retries") {
      retries = std::atoi(next().c_str());
    } else if (arg == "--deadline-ms") {
      deadlineMs = std::atoll(next().c_str());
    } else if (arg == "--run") {
      runWaves = (a + 1 < argc && argv[a + 1][0] != '-' &&
                  std::isdigit(static_cast<unsigned char>(argv[a + 1][0])))
                     ? std::atoi(argv[++a])
                     : 1;
    } else if (arg.rfind("--", 0) == 0) {
      usage();
    } else {
      path = arg;
    }
  }
  if (path.empty()) usage();

  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "valc: cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << file.rdbuf();

  try {
    val::Module mod = core::frontend(buf.str());

    if (classifyOnly) {
      for (const val::Block& b : mod.blocks) {
        std::string verdict;
        if (b.isForall()) {
          auto r = val::isPrimitiveForall(b, mod);
          verdict = r ? "primitive forall" : "NOT primitive: " + r.reason;
        } else if (auto s = val::isSimpleForIter(b, mod)) {
          verdict = "simple for-iter (companion function exists)";
        } else if (auto p = val::isPrimitiveForIter(b, mod)) {
          verdict = "primitive for-iter, not simple: " +
                    val::isSimpleForIter(b, mod).reason;
        } else {
          verdict = "NOT primitive: " + val::isPrimitiveForIter(b, mod).reason;
        }
        std::printf("%-10s %s\n", b.name.c_str(), verdict.c_str());
      }
      auto ps = val::isPipeStructured(mod);
      std::printf("program: %s\n",
                  ps ? "pipe-structured (Theorem 4 applies)"
                     : ("not pipe-structured: " + ps.reason).c_str());
      return 0;
    }

    const core::CompiledProgram prog = core::compile(mod, opts);
    if (dot) {
      std::fputs(dfg::toDot(prog.graph, path).c_str(), stdout);
      return 0;
    }

    std::printf("%s -> %s %s\n", path.c_str(), prog.outputName.c_str(),
                prog.outputRange.str().c_str());
    std::printf("  %s\n", dfg::computeStats(prog.graph).str().c_str());
    std::printf("  buffering: %zu stages in %zu FIFOs\n",
                prog.balance.buffersInserted, prog.balance.fifoNodes);
    for (const auto& b : prog.blocks) {
      std::printf("  block %-8s %-24s", b.name.c_str(), b.scheme.c_str());
      if (b.cycleStages > 0)
        std::printf(" cycle %lld stages / %lld packets",
                    static_cast<long long>(b.cycleStages),
                    static_cast<long long>(b.cycleTokens));
      std::printf("  predicted rate %.3f\n", b.predictedRate);
    }

    if (explainSchedule) {
      // The IR is computed from the machine-ready (lowered) flat form — the
      // same form the compiled scheduler sees.
      const dfg::Graph lowered = fuse ? opt::fuseFifos(prog.graph)
                                      : dfg::expandFifos(prog.graph);
      const exec::ExecutableGraph eg(lowered);
      const sched::SteadySchedule ss = sched::computeSteadySchedule(eg);
      std::fputs(ss.explain(eg).c_str(), stdout);
    }

    // --profile, --trace and the resilience flags need a run; give them one
    // wave if --run didn't.
    if ((profile || !tracePath.empty() || haveFaults || guards ||
         watchdog > 0 || checkpointEvery > 0 || !checkpointFile.empty() ||
         !restoreFile.empty() || retries > 1 || deadlineMs > 0) &&
        runWaves == 0)
      runWaves = 1;

    if (runWaves > 0) {
      run::StreamMap streams;
      for (const auto& [name, range] : prog.inputs) {
        std::vector<Value> v;
        for (std::int64_t k = 0; k < prog.inputLengthPerWave(name); ++k)
          v.push_back(Value(0.01 * static_cast<double>(k % 97)));
        streams[name] = std::move(v);
      }
      opt::FusionStats fstats;
      const dfg::Graph lowered = fuse ? opt::fuseFifos(prog.graph, &fstats)
                                      : dfg::expandFifos(prog.graph);
      if (profile) {
        std::printf("  lowered (%s): %s\n", fuse ? "fused" : "expanded",
                    dfg::computeStats(lowered).str().c_str());
        if (fuse)
          std::printf("  fusion: %zu chains fused, %zu cells absorbed"
                      " (%zu -> %zu nodes)\n",
                      fstats.chainsFused, fstats.cellsAbsorbed,
                      fstats.nodesBefore, fstats.nodesAfter);
      }
      obs::MetricsSink metrics;
      obs::TraceSink trace;
      machine::RunOptions ropts;
      ropts.waves = runWaves;
      ropts.expectedOutputs[prog.outputName] =
          prog.expectedOutputPerWave() * runWaves;
      if (profile) ropts.metrics = &metrics;
      if (!tracePath.empty()) ropts.trace = &trace;
      fault::Plan plan;
      if (haveFaults) {
        plan = fault::parsePlan(faultSpec);
        ropts.faults = &plan;
        std::printf("  faults: %s\n", fault::describe(plan).c_str());
      }
      guard::Config gcfg;
      if (guards) ropts.guards = &gcfg;
      ropts.watchdog = watchdog;
      ropts.scheduler = scheduler;
      recover::CheckpointLog ckptLog;
      if (checkpointEvery > 0 || !checkpointFile.empty()) {
        ropts.checkpointEvery = checkpointEvery > 0 ? checkpointEvery : 64;
        ropts.checkpoints = &ckptLog;
      }
      recover::Snapshot restoreSnap;
      if (!restoreFile.empty()) {
        restoreSnap = recover::loadFile(restoreFile);
        ropts.restoreFrom = &restoreSnap;
        std::printf("  restore: %s (t=%lld, %s)\n", restoreFile.c_str(),
                    static_cast<long long>(restoreSnap.now),
                    restoreSnap.origin.c_str());
      }
      if (deadlineMs > 0) ropts.deadlineMicros = deadlineMs * 1000;
      machine::MachineResult res;
      if (retries > 1) {
        recover::RetryPolicy policy;
        policy.maxAttempts = retries;
        policy.checkpointEvery = ropts.checkpointEvery;
        recover::Report report;
        res = recover::superviseRun(lowered, nullptr,
                                    machine::MachineConfig::unit(), streams,
                                    ropts, policy, &report);
        if (report.recovered)
          std::printf("  recovered after %d attempts:\n%s",
                      report.attemptsUsed(), report.str().c_str());
      } else {
        res = machine::simulate(lowered, machine::MachineConfig::unit(),
                                streams, ropts);
      }
      if (!checkpointFile.empty() && ckptLog.last()) {
        recover::saveFile(*ckptLog.last(), checkpointFile);
        std::printf("  checkpoint: wrote %s (t=%lld, %zu taken)\n",
                    checkpointFile.c_str(),
                    static_cast<long long>(ckptLog.last()->now),
                    ckptLog.taken());
      }
      std::printf("  run: %s in %lld instruction times, steady rate %.3f\n",
                  res.completed ? "completed" : res.note.c_str(),
                  static_cast<long long>(res.cycles),
                  res.steadyRate(prog.outputName));
      if (const std::string injected = res.faults.str(); !injected.empty())
        std::printf("  injected: %s\n", injected.c_str());
      if (scheduler == core::SchedulerKind::Compiled) {
        const auto& ci = res.compiled;
        if (ci.fastForwarded)
          std::printf("  compiled: period %lld, fast-forwarded %lld windows"
                      " = %lld instruction times (%llu firings%s)\n",
                      static_cast<long long>(ci.detectedPeriod),
                      static_cast<long long>(ci.windowsSkipped),
                      static_cast<long long>(ci.cyclesSkipped),
                      static_cast<unsigned long long>(ci.firingsSkipped),
                      ci.vectorized   ? ", vectorized"
                      : ci.tapeReplay ? ", tape replay"
                                      : "");
        else
          std::printf("  compiled: %s\n",
                      ci.reason.empty() ? "no fast-forward taken"
                                        : ci.reason.c_str());
      }

      if (profile) {
        const obs::RateReport audit = obs::auditMaxPipelining(lowered, metrics);
        std::ostringstream report;
        audit.print(report);
        std::printf("  %s", report.str().c_str());
        const obs::TraceMeta meta = obs::TraceMeta::of(lowered);
        std::ostringstream jsonText;
        metrics.writeJson(jsonText, &meta);
        std::printf("%s", jsonText.str().c_str());
      }
      if (!tracePath.empty()) {
        std::ofstream out(tracePath);
        if (!out) {
          std::fprintf(stderr, "valc: cannot write %s\n", tracePath.c_str());
          return 1;
        }
        obs::writeChromeTrace(out, trace);
        std::printf("  trace: wrote %s (load in chrome://tracing or "
                    "https://ui.perfetto.dev)\n",
                    tracePath.c_str());
      }
    }
  } catch (const recover::RecoveryExhausted& e) {
    std::fprintf(stderr, "valc: %s\n%s", e.what(), e.report().str().c_str());
    return 3;
  } catch (const guard::ViolationError& e) {
    std::fprintf(stderr, "valc: guard violation: %s\n", e.what());
    return 3;
  } catch (const run::StallError& e) {
    std::fprintf(stderr, "valc: stall: %s\n", e.what());
    return 3;
  } catch (const run::DeadlineError& e) {
    std::fprintf(stderr, "valc: deadline: %s\n", e.what());
    return 3;
  } catch (const recover::SnapshotError& e) {
    std::fprintf(stderr, "valc: snapshot: %s\n", e.what());
    return 1;
  } catch (const CompileError& e) {
    std::fprintf(stderr, "valc: %s\n", e.what());
    return 1;
  }
  return 0;
}
