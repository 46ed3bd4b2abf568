// End-to-end serving (serve/server.hpp): correctness of one-shot and
// streaming requests against direct engine runs, admission control, session
// isolation under injected faults, divergence fallback, backpressure, and
// structured failure reporting.  Run under the TSan preset (ctest -L tsan):
// the whole subsystem is concurrent by construction.
#include <gtest/gtest.h>

#include <pthread.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"
#include "testing.hpp"

namespace valpipe {
namespace {

core::CompileOptions copts() {
  core::CompileOptions o;
  o.lower = true;
  return o;
}

/// Data-dependent conditional (the Fig. 5 shape): gate control follows the
/// SIGN of C[i], so tenants with different signs diverge lane-wise.
std::string condSource(int m = 8) {
  return "const m = " + std::to_string(m) + "\n" + R"(
function cond(A, B, C: array[real] [1, m] returns array[real])
  forall i in [1, m]
  construct if C[i] > 0. then -(A[i] + B[i])
            else 5. * (A[i] * B[i] + 2.) endif
  endall
endfun
)";
}

run::StreamMap tenantInputs(const core::CompiledProgram& prog, unsigned seed,
                            double lo = -1.0, double hi = 1.0) {
  val::ArrayMap arrays;
  unsigned k = 0;
  for (const auto& [name, range] : prog.inputs)
    arrays[name] = testing::randomArray(range, seed + 31 * k++, lo, hi);
  return testing::inputsFor(prog, arrays);
}

run::StreamMap directRun(const core::CompiledProgram& prog,
                         const run::StreamMap& inputs) {
  machine::RunOptions ro;
  ro.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
  const auto res = machine::simulate(prog.graph,
                                     machine::MachineConfig::unit(), inputs, ro);
  EXPECT_TRUE(res.completed) << res.note;
  return res.outputs;
}

TEST(Serve, OneShotMatchesDirectRunAndHitsTheCache) {
  serve::ServerConfig cfg;
  cfg.laneWidth = 4;
  cfg.batchWindowMicros = 2000;
  serve::Server server(cfg);

  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());

  constexpr int kN = 6;
  std::vector<run::StreamMap> inputs;
  std::vector<std::future<serve::Response>> futs;
  for (int i = 0; i < kN; ++i)
    inputs.push_back(tenantInputs(prog, 100u + unsigned(i)));
  for (int i = 0; i < kN; ++i)
    futs.push_back(
        server.submit(src, copts(), inputs[static_cast<std::size_t>(i)]));

  for (int i = 0; i < kN; ++i) {
    const serve::Response r = futs[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(r.ok()) << serve::toString(r.status) << ": " << r.error;
    EXPECT_EQ(r.outputs.at(prog.outputName),
              directRun(prog, inputs[static_cast<std::size_t>(i)])
                  .at(prog.outputName))
        << "request " << i << " differs from its direct run";
    EXPECT_GT(r.stats.firings, 0u);
    EXPECT_GE(r.stats.latencyMicros, 0);
  }

  // One source, one compile; every other request hit the resident program.
  EXPECT_EQ(server.cacheStats().compiles, 1u);
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.requestsCompleted, std::uint64_t(kN));
  EXPECT_EQ(st.requestsFailed, 0u);
  EXPECT_EQ(st.lanesExecuted, std::uint64_t(kN));
  server.shutdown();
}

/// This process's mapped address space in KiB (VmSize of /proc/self/status;
/// 0 when unreadable).
std::int64_t mappedKiB() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmSize:") {
      std::int64_t kib = 0;
      in >> kib;
      return kib;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

/// Threads of this process, read from /proc/self/task (0 when unreadable).
std::size_t processThreads() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec))
    ++n;
  return n;
}

TEST(Serve, OneShotPumpsAreJoinedAsNewRequestsArrive) {
  // Every submit() starts an input-pump thread; a long-lived server must not
  // accumulate one per past request.  A finished thread leaves the task
  // list on its own, but until it is joined its stack stays mapped, so the
  // address space shows what the task list cannot.
  const std::size_t before = processThreads();
  if (before == 0 || mappedKiB() == 0)
    GTEST_SKIP() << "/proc/self is not readable";
  pthread_attr_t attr;
  std::size_t stack = 0;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  pthread_attr_getstacksize(&attr, &stack);
  pthread_attr_destroy(&attr);
  serve::ServerConfig cfg;
  cfg.workers = 2;
  serve::Server server(cfg);
  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());
  const run::StreamMap in = tenantInputs(prog, 7);
  const auto oneShot = [&] {
    const serve::Response r = server.submit(src, copts(), in).get();
    ASSERT_TRUE(r.ok()) << serve::toString(r.status) << ": " << r.error;
  };
  // Warm up first: the allocator maps its per-thread arenas once.
  for (int i = 0; i < 16; ++i) oneShot();
  const std::int64_t mappedBefore = mappedKiB();
  constexpr int kRequests = 64;
  for (int i = 0; i < kRequests; ++i) oneShot();
  // The workers, plus at most the pumps still winding down after settling
  // their futures (the latest one, and one the next submit() would reap).
  EXPECT_LE(processThreads(), before + cfg.workers + 2);
  // Unjoined pumps would map kRequests stacks; joined ones are recycled.
  // (Sanitizer runtimes map their own per-thread state; skip it there.)
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  EXPECT_LT(mappedKiB() - mappedBefore,
            static_cast<std::int64_t>(stack / 1024) * (kRequests / 4))
      << "default thread stack " << stack / 1024 << " KiB";
#else
  (void)mappedBefore;
  (void)stack;
#endif
  server.shutdown();
}

TEST(Serve, AdmissionRejectsOverflowSessions) {
  serve::ServerConfig cfg;
  cfg.maxSessions = 1;
  serve::Server server(cfg);

  const std::string src = testing::example1Source(8);
  serve::Response why;
  auto first = server.open(src, copts(), {}, &why);
  ASSERT_NE(first, nullptr) << why.error;

  serve::Response second;
  EXPECT_EQ(server.open(src, copts(), {}, &second), nullptr);
  EXPECT_EQ(second.status, serve::Status::Rejected);
  EXPECT_FALSE(second.error.empty());
  EXPECT_GE(server.stats().sessionsRejected, 1u);

  // Finishing the first session frees the slot.
  first->cancel();
  first->finish();
  serve::Response third;
  EXPECT_NE(server.open(src, copts(), {}, &third), nullptr) << third.error;
  server.shutdown();
}

TEST(Serve, MalformedRequestsGetStructuredErrors) {
  serve::Server server;
  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());

  // Compile error: reported per request, not thrown at the caller.
  serve::Response r = server.submit("function broken(", copts(), {}).get();
  EXPECT_EQ(r.status, serve::Status::CompileError);
  EXPECT_FALSE(r.error.empty());

  // Missing input stream.
  r = server.submit(src, copts(), {}).get();
  EXPECT_EQ(r.status, serve::Status::BadRequest);

  // Wrong input length.
  run::StreamMap shortIn = tenantInputs(prog, 5);
  shortIn.begin()->second.pop_back();
  r = server.submit(src, copts(), shortIn).get();
  EXPECT_EQ(r.status, serve::Status::BadRequest);
  EXPECT_NE(r.error.find("expected"), std::string::npos) << r.error;

  // The server is still healthy afterwards.
  const run::StreamMap good = tenantInputs(prog, 6);
  r = server.submit(src, copts(), good).get();
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.outputs.at(prog.outputName), directRun(prog, good).at(prog.outputName));
  server.shutdown();
}

TEST(Serve, FaultedSessionFailsAloneCleanOnesComplete) {
  serve::ServerConfig cfg;
  cfg.laneWidth = 4;
  cfg.workers = 2;
  serve::Server server(cfg);

  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());

  // One tenant runs under a destructive fault plan: every result packet is
  // dropped, so its run MUST stall — and the watchdog must turn that into a
  // structured per-request diagnosis, not a hang.
  serve::SessionOptions faulty;
  faulty.hasFaults = true;
  faulty.faults.seed = 7;
  faulty.faults.dropResultPermille = 1000;
  faulty.watchdog = 2000;
  faulty.maxInstructionTimes = 200'000;

  const run::StreamMap cleanIn1 = tenantInputs(prog, 41);
  const run::StreamMap cleanIn2 = tenantInputs(prog, 42);
  auto bad = server.submit(src, copts(), tenantInputs(prog, 40), faulty);
  auto good1 = server.submit(src, copts(), cleanIn1);
  auto good2 = server.submit(src, copts(), cleanIn2);

  const serve::Response rb = bad.get();
  EXPECT_FALSE(rb.ok());
  EXPECT_TRUE(rb.status == serve::Status::Stalled ||
              rb.status == serve::Status::GuardViolation)
      << serve::toString(rb.status) << ": " << rb.error;
  EXPECT_FALSE(rb.error.empty()) << "stall must carry a diagnosis";

  // Isolation: the other tenants' requests are untouched — Ok and
  // bit-identical to their direct runs.
  const serve::Response r1 = good1.get();
  const serve::Response r2 = good2.get();
  ASSERT_TRUE(r1.ok()) << r1.error;
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_EQ(r1.outputs.at(prog.outputName),
            directRun(prog, cleanIn1).at(prog.outputName));
  EXPECT_EQ(r2.outputs.at(prog.outputName),
            directRun(prog, cleanIn2).at(prog.outputName));

  const serve::ServerStats st = server.stats();
  EXPECT_GE(st.requestsFailed, 1u);
  EXPECT_GE(st.requestsCompleted, 2u);
  server.shutdown();
}

TEST(Serve, DivergentControlFallsBackToSoloRunsCorrectly) {
  serve::ServerConfig cfg;
  cfg.laneWidth = 4;
  cfg.batchWindowMicros = 20'000;  // wide window: a batch would form
  serve::Server server(cfg);

  const std::string src = condSource(8);
  const auto prog = core::compileSource(src, copts());

  // Tenants whose C signs differ: the `C[i] > 0.` gate control would
  // diverge across lanes.  The cache sees the input-driven gate when it
  // builds the entry, so the program runs solo from the start — no batch
  // is formed, none falls back — and every tenant gets its exact outputs.
  constexpr int kN = 4;
  std::vector<run::StreamMap> inputs;
  for (int i = 0; i < kN; ++i) {
    const double lo = i % 2 == 0 ? 0.1 : -1.0;
    const double hi = i % 2 == 0 ? 1.0 : -0.1;
    inputs.push_back(tenantInputs(prog, 500u + unsigned(i), lo, hi));
  }
  std::vector<std::future<serve::Response>> futs;
  for (int i = 0; i < kN; ++i)
    futs.push_back(
        server.submit(src, copts(), inputs[static_cast<std::size_t>(i)]));

  for (int i = 0; i < kN; ++i) {
    const serve::Response r = futs[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(r.ok()) << serve::toString(r.status) << ": " << r.error;
    EXPECT_EQ(r.outputs.at(prog.outputName),
              directRun(prog, inputs[static_cast<std::size_t>(i)])
                  .at(prog.outputName))
        << "tenant " << i;
    EXPECT_EQ(r.stats.maxLanes, 1) << "tenant " << i;
    EXPECT_EQ(r.stats.soloReruns, 0) << "tenant " << i;
  }
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.batchedRuns, 0u);
  EXPECT_EQ(st.batchFallbacks, 0u);
  server.shutdown();
}

TEST(Serve, IndexDrivenControlStillBatches) {
  serve::ServerConfig cfg;
  cfg.laneWidth = 4;
  cfg.batchWindowMicros = 50'000;
  serve::Server server(cfg);

  // Example 1 (Fig. 6): its boundary gates test the index, never the data,
  // so every lane agrees on control and tenants share engine runs.
  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());
  constexpr int kN = 4;
  std::vector<run::StreamMap> inputs;
  for (int i = 0; i < kN; ++i)
    inputs.push_back(tenantInputs(prog, 700u + unsigned(i)));
  std::vector<std::future<serve::Response>> futs;
  for (int i = 0; i < kN; ++i)
    futs.push_back(
        server.submit(src, copts(), inputs[static_cast<std::size_t>(i)]));
  for (int i = 0; i < kN; ++i) {
    const serve::Response r = futs[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(r.ok()) << serve::toString(r.status) << ": " << r.error;
    EXPECT_EQ(r.outputs.at(prog.outputName),
              directRun(prog, inputs[static_cast<std::size_t>(i)])
                  .at(prog.outputName))
        << "tenant " << i;
  }
  const serve::ServerStats st = server.stats();
  EXPECT_GT(st.batchedRuns, 0u);
  EXPECT_EQ(st.batchFallbacks, 0u);
  server.shutdown();
}

TEST(Serve, StreamingSessionWithBackpressure) {
  serve::ServerConfig cfg;
  cfg.sessionWindowWaves = 2;  // tight window: the producer must block
  serve::Server server(cfg);

  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());
  constexpr int kWaves = 6;

  serve::SessionOptions sopts;
  sopts.waves = kWaves;
  serve::Response why;
  auto session = server.open(src, copts(), sopts, &why);
  ASSERT_NE(session, nullptr) << why.error;

  std::vector<run::StreamMap> waves;
  for (int w = 0; w < kWaves; ++w)
    waves.push_back(tenantInputs(prog, 900u + unsigned(w)));

  std::thread producer([&] {
    for (int w = 0; w < kWaves; ++w)
      for (const auto& [name, data] : waves[static_cast<std::size_t>(w)])
        ASSERT_TRUE(session->push(name, data)) << "wave " << w;
    session->closeInputs();
  });

  // Slow consumer: the window (2 waves) bounds what the server buffers; the
  // producer above cannot race ahead, it blocks in push() until we pull.
  for (int w = 0; w < kWaves; ++w) {
    const auto out = session->pull();
    ASSERT_TRUE(out.has_value()) << "wave " << w;
    EXPECT_EQ(*out,
              directRun(prog, waves[static_cast<std::size_t>(w)])
                  .at(prog.outputName))
        << "wave " << w << " differs from its direct run";
  }
  EXPECT_EQ(session->pull(), std::nullopt);  // stream finished
  producer.join();

  const serve::Response r = session->finish();
  EXPECT_TRUE(r.ok()) << serve::toString(r.status) << ": " << r.error;
  EXPECT_GT(r.stats.firings, 0u);
  server.shutdown();
}

TEST(Serve, BadPushesFailTheSession) {
  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());

  {  // Wrong wave length.
    serve::Server server;
    auto session = server.open(src, copts());
    ASSERT_NE(session, nullptr);
    EXPECT_FALSE(session->push(prog.inputs.begin()->first, {Value(1.0)}));
    const serve::Response r = session->finish();
    EXPECT_EQ(r.status, serve::Status::BadRequest);
    EXPECT_NE(r.error.find("expected"), std::string::npos) << r.error;
    server.shutdown();
  }
  {  // Unknown stream name.
    serve::Server server;
    auto session = server.open(src, copts());
    ASSERT_NE(session, nullptr);
    EXPECT_FALSE(session->push("no-such-stream", {Value(1.0)}));
    EXPECT_EQ(session->finish().status, serve::Status::BadRequest);
    server.shutdown();
  }
  {  // Push after close is refused; the session itself may already have
    // completed Ok (an early close on an unfed 1-wave session is success),
    // so only the push's verdict is deterministic here.
    serve::Server server;
    auto session = server.open(src, copts());
    ASSERT_NE(session, nullptr);
    session->closeInputs();
    run::StreamMap in = tenantInputs(prog, 1);
    EXPECT_FALSE(session->push(in.begin()->first, in.begin()->second));
    const serve::Response r = session->finish();
    EXPECT_TRUE(r.status == serve::Status::Ok ||
                r.status == serve::Status::BadRequest)
        << serve::toString(r.status);
    server.shutdown();
  }
}

TEST(Serve, CancelAndShutdownReportCancelled) {
  const std::string src = testing::example1Source(8);
  {
    serve::Server server;
    auto session = server.open(src, copts());
    ASSERT_NE(session, nullptr);
    session->cancel();
    EXPECT_EQ(session->finish().status, serve::Status::Cancelled);
    EXPECT_EQ(session->pull(), std::nullopt);
    server.shutdown();
  }
  {
    // Shutdown with a session still open: the session ends Cancelled, the
    // server neither hangs nor crashes, and new work is refused.
    serve::Server server;
    auto session = server.open(src, copts());
    ASSERT_NE(session, nullptr);
    server.shutdown();
    EXPECT_EQ(session->finish().status, serve::Status::Cancelled);
    const serve::Response after = server.submit(src, copts(), {}).get();
    EXPECT_EQ(after.status, serve::Status::Rejected);
  }
}

TEST(Serve, PerSessionKnobsMetricsAndGuards) {
  serve::Server server;
  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());
  const run::StreamMap in = tenantInputs(prog, 77);

  serve::SessionOptions sopts;
  sopts.wantMetrics = true;
  sopts.guards = true;
  const serve::Response r = server.submit(src, copts(), in, sopts).get();
  ASSERT_TRUE(r.ok()) << serve::toString(r.status) << ": " << r.error;
  EXPECT_EQ(r.outputs.at(prog.outputName), directRun(prog, in).at(prog.outputName));
  EXPECT_FALSE(r.metricsJson.empty()) << "wantMetrics produced no JSON";
  server.shutdown();
}

}  // namespace
}  // namespace valpipe
