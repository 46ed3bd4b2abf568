// Compile-once program cache (serve/program_cache.hpp): keying, sharing,
// and the exactly-once concurrency contract.  Run under the TSan preset
// (ctest -L tsan) to check the promise/shared_future handoff.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "serve/program_cache.hpp"
#include "support/diagnostics.hpp"
#include "testing.hpp"

namespace valpipe {
namespace {

using serve::CachedProgram;
using serve::ProgramCache;

core::CompileOptions opts(bool fuse) {
  core::CompileOptions o;
  o.lower = true;
  o.fuseFifos = fuse;
  return o;
}

TEST(ServeCache, HitReturnsTheSameSharedProgram) {
  ProgramCache cache;
  const std::string src = testing::example1Source(8);

  bool hit = true;
  const auto a = cache.get(src, opts(true), &hit);
  ASSERT_NE(a, nullptr);
  EXPECT_FALSE(hit);  // first call compiles

  const auto b = cache.get(src, opts(true), &hit);
  EXPECT_TRUE(hit);
  // Same shared_ptr — the ExecutableGraph is bit-identical by construction,
  // not merely equivalent.
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(&a->exec, &b->exec);

  const auto st = cache.stats();
  EXPECT_EQ(st.compiles, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServeCache, DistinctCompileOptionsGetDistinctEntries) {
  ProgramCache cache;
  const std::string src = testing::example1Source(8);

  const auto fused = cache.get(src, opts(true));
  const auto unfused = cache.get(src, opts(false));
  ASSERT_NE(fused, nullptr);
  ASSERT_NE(unfused, nullptr);
  EXPECT_NE(fused.get(), unfused.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().compiles, 2u);

  // Each key hits its own entry afterwards.
  EXPECT_EQ(cache.get(src, opts(true)).get(), fused.get());
  EXPECT_EQ(cache.get(src, opts(false)).get(), unfused.get());
  EXPECT_EQ(cache.stats().compiles, 2u);
}

TEST(ServeCache, DistinctSourcesGetDistinctEntries) {
  ProgramCache cache;
  const auto a = cache.get(testing::example1Source(8), opts(true));
  const auto b = cache.get(testing::example1Source(16), opts(true));
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ServeCache, CachedProgramIsMachineReady) {
  ProgramCache cache;
  // Lowering is forced on regardless of what the tenant passed: without
  // fusion, every FIFO is expanded away.
  const auto plain = cache.get(testing::example1Source(8), opts(false));
  ASSERT_NE(plain, nullptr);
  EXPECT_TRUE(dfg::isLowered(plain->program.graph));

  // With fusion, chains become composite ring-buffer cells; the graph feeds
  // the engine directly either way.  Prove it by running the resident graph.
  const auto fused = cache.get(testing::example1Source(8), opts(true));
  ASSERT_NE(fused, nullptr);
  EXPECT_EQ(fused->outputName(), fused->program.outputName);
  EXPECT_EQ(fused->outputPerWave(), fused->program.expectedOutputPerWave());
  val::ArrayMap arrays;
  for (const auto& [name, range] : fused->program.inputs)
    arrays[name] = testing::randomArray(range, 11);
  machine::RunOptions ro;
  ro.expectedOutputs[fused->outputName()] = fused->outputPerWave();
  const auto res = machine::simulate(
      fused->program.graph, machine::MachineConfig::unit(),
      testing::inputsFor(fused->program, arrays), ro);
  EXPECT_TRUE(res.completed) << res.note;
}

TEST(ServeCache, EntryRecordsWhetherInputsSteerControl) {
  ProgramCache cache;
  // Example 1's boundary gates and Example 2's loop merges are driven by
  // index and counter sequences; the Fig. 5 conditional gates on an input.
  const std::string cond = R"(const m = 8
function cond(A, B, C: array[real] [1, m] returns array[real])
  forall i in [1, m]
  construct if C[i] > 0. then -(A[i] + B[i])
            else 5. * (A[i] * B[i] + 2.) endif
  endall
endfun
)";
  for (bool fuse : {true, false}) {
    EXPECT_FALSE(
        cache.get(testing::example1Source(8), opts(fuse))->dataDependentControl);
    EXPECT_FALSE(
        cache.get(testing::example2Source(8), opts(fuse))->dataDependentControl);
    EXPECT_TRUE(cache.get(cond, opts(fuse))->dataDependentControl);
  }
}

TEST(ServeCache, ConcurrentLookupsCompileExactlyOnce) {
  ProgramCache cache;
  const std::string src = testing::example1Source(32);
  constexpr int kThreads = 8;

  std::vector<std::shared_ptr<const CachedProgram>> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Rough start barrier so the calls actually race.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      got[static_cast<std::size_t>(t)] = cache.get(src, opts(true));
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(got[static_cast<std::size_t>(t)], nullptr) << "thread " << t;
    EXPECT_EQ(got[static_cast<std::size_t>(t)].get(), got[0].get())
        << "thread " << t << " got a different compilation";
  }
  EXPECT_EQ(cache.stats().compiles, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServeCache, CompileErrorPropagatesAndDropsTheEntry) {
  ProgramCache cache;
  const std::string bad = "function broken(";
  EXPECT_THROW(cache.get(bad, opts(true)), CompileError);
  // The failed key is not wedged: the entry was dropped, and the error is
  // deterministic on retry.
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_THROW(cache.get(bad, opts(true)), CompileError);

  // Concurrent waiters all see the error, none crash.
  std::atomic<int> threw{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      try {
        cache.get(bad, opts(true));
      } catch (const CompileError&) {
        threw.fetch_add(1);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(threw.load(), 4);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ServeCache, CapacityEvictsTheLeastRecentlyUsedEntry) {
  ProgramCache cache(2);
  EXPECT_EQ(cache.capacity(), 2u);
  const std::string a = testing::example1Source(8);
  const std::string b = testing::example1Source(16);
  const std::string c = testing::example1Source(32);

  const auto pa = cache.get(a, opts(true));
  const auto pb = cache.get(b, opts(true));
  EXPECT_EQ(cache.size(), 2u);

  // Touch A so B becomes the LRU victim when C arrives.
  bool hit = false;
  cache.get(a, opts(true), &hit);
  EXPECT_TRUE(hit);

  const auto pc = cache.get(c, opts(true));
  ASSERT_NE(pc, nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // A and C are resident; B was evicted and recompiles on the next get.
  EXPECT_EQ(cache.get(a, opts(true), &hit).get(), pa.get());
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.get(c, opts(true), &hit).get(), pc.get());
  EXPECT_TRUE(hit);
  const auto before = cache.stats().compiles;
  const auto pb2 = cache.get(b, opts(true), &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(pb2.get(), pb.get());
  EXPECT_EQ(cache.stats().compiles, before + 1);
}

TEST(ServeCache, EvictionNeverInvalidatesAHeldProgram) {
  ProgramCache cache(1);
  // Hold the program across its own eviction: the cache drops only its
  // reference, the shared_ptr keeps the compiled artifacts alive.
  const auto held = cache.get(testing::example1Source(8), opts(true));
  ASSERT_NE(held, nullptr);
  const auto other = cache.get(testing::example1Source(16), opts(true));
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // The evicted program still runs to completion.
  val::ArrayMap arrays;
  for (const auto& [name, range] : held->program.inputs)
    arrays[name] = testing::randomArray(range, 5);
  machine::RunOptions ro;
  ro.expectedOutputs[held->outputName()] = held->outputPerWave();
  const auto res = machine::simulate(
      held->program.graph, machine::MachineConfig::unit(),
      testing::inputsFor(held->program, arrays), ro);
  EXPECT_TRUE(res.completed) << res.note;

  // Re-fetching the evicted key compiles a fresh, distinct instance.
  const auto fresh = cache.get(testing::example1Source(8), opts(true));
  EXPECT_NE(fresh.get(), held.get());
}

TEST(ServeCache, SetCapacityShrinksImmediatelyKeepingTheHottest) {
  ProgramCache cache;  // unbounded
  cache.get(testing::example1Source(8), opts(true));
  cache.get(testing::example1Source(16), opts(true));
  const auto hot = cache.get(testing::example1Source(32), opts(true));
  EXPECT_EQ(cache.size(), 3u);

  cache.setCapacity(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 2u);

  // The most recently used entry survived.
  bool hit = false;
  EXPECT_EQ(cache.get(testing::example1Source(32), opts(true), &hit).get(),
            hot.get());
  EXPECT_TRUE(hit);

  // 0 removes the bound again.
  cache.setCapacity(0);
  cache.get(testing::example1Source(8), opts(true));
  cache.get(testing::example1Source(16), opts(true));
  EXPECT_EQ(cache.size(), 3u);
}

}  // namespace
}  // namespace valpipe
