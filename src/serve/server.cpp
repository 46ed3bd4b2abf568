#include "serve/server.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "guard/guard.hpp"
#include "machine/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/lanes.hpp"
#include "support/diagnostics.hpp"

namespace valpipe::serve {

const char* toString(Status s) {
  switch (s) {
    case Status::Ok: return "ok";
    case Status::Rejected: return "rejected";
    case Status::BadRequest: return "bad-request";
    case Status::CompileError: return "compile-error";
    case Status::Stalled: return "stalled";
    case Status::GuardViolation: return "guard-violation";
    case Status::RunError: return "run-error";
    case Status::Cancelled: return "cancelled";
    case Status::Overloaded: return "overloaded";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Session state

struct Session::State {
  Server* server = nullptr;
  std::shared_ptr<const CachedProgram> prog;
  SessionOptions opts;
  bool collectAll = false;  ///< one-shot submit(): accumulate whole outputs
  std::chrono::steady_clock::time_point t0;

  std::mutex mu;
  std::condition_variable cv;

  /// Per-input-stream waves pushed but not yet dispatched to the run queue.
  std::map<std::string, std::deque<std::vector<Value>>> pendingIn;
  int wavesDispatched = 0;
  int wavesCompleted = 0;
  int wavesPulled = 0;
  std::vector<std::optional<std::vector<Value>>> outByWave;  ///< size = waves
  bool inputsClosed = false;

  Status status = Status::Ok;
  std::string error;
  RequestStats stats;
  std::string metricsJson;
  std::int64_t retryAfterMillis = 0;  ///< Overloaded hint for the Response
  std::atomic<bool> failed{false};  ///< lock-free peek for queue scans
  bool done = false;
  bool promiseSet = false;
  std::promise<Response> completion;
  std::shared_future<Response> completionFut;

  Response buildResponseLocked() {
    Response r;
    r.status = status;
    r.error = error;
    r.stats = stats;
    r.metricsJson = metricsJson;
    r.retryAfterMillis = retryAfterMillis;
    if (collectAll && status == Status::Ok) {
      std::vector<Value>& out = r.outputs[prog->outputName()];
      for (auto& w : outByWave)
        if (w) out.insert(out.end(), w->begin(), w->end());
    }
    return r;
  }

  /// Called with mu held whenever completion may have been reached.
  void maybeFinishLocked() {
    const bool finished =
        failed.load() ||
        (inputsClosed && wavesCompleted == wavesDispatched &&
         static_cast<std::size_t>(pendingWavesLocked()) == 0);
    if (!finished || done) return;
    done = true;
    stats.latencyMicros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    // Account the session BEFORE settling the promise: a caller woken by
    // the future must already see this request in ServerStats.
    server->onSessionDone(status == Status::Ok);
    if (!promiseSet) {
      promiseSet = true;
      completion.set_value(buildResponseLocked());
    }
    cv.notify_all();
  }

  /// Waves fully buffered (every input stream has one) but not dispatched.
  int pendingWavesLocked() const {
    if (pendingIn.empty()) return 0;
    std::size_t m = SIZE_MAX;
    for (const auto& [name, q] : pendingIn) m = std::min(m, q.size());
    // Streams never pushed yet are absent from the map; a program input not
    // in pendingIn means no complete wave is buffered.
    if (pendingIn.size() < prog->program.inputs.size()) return 0;
    return static_cast<int>(m);
  }

  void failLocked(Status st, std::string why,
                  std::int64_t retryAfterHint = 0) {
    if (failed.load()) return;  // first failure wins
    status = st;
    error = std::move(why);
    retryAfterMillis = retryAfterHint;
    failed.store(true);
    maybeFinishLocked();
    cv.notify_all();
  }
};

// ---------------------------------------------------------------------------
// Run units and batching

struct Server::RunUnit {
  std::shared_ptr<Session::State> st;
  int wave = 0;
  run::StreamMap inputs;
};

namespace {

/// A unit may ride in a multi-lane batch only when its lanes cannot disagree
/// on control (decided once per cached program) and nothing about its run is
/// observable per-tenant below the output level: faults, guards, and metrics
/// all hook individual firings, and array memory is per-run state.
bool batchable(const Session::State& st) {
  const SessionOptions& o = st.opts;
  return !st.prog->dataDependentControl && !o.hasFaults && !o.guards &&
         !o.wantMetrics && o.amInitial.empty();
}

/// Two units can share an engine run: same resident program (same pointer —
/// the cache guarantees one object per key) and identical run knobs.
bool compatible(const Session::State& a, const Session::State& b) {
  return a.prog.get() == b.prog.get() &&
         a.opts.scheduler == b.opts.scheduler &&
         a.opts.watchdog == b.opts.watchdog &&
         a.opts.maxInstructionTimes == b.opts.maxInstructionTimes;
}

machine::RunOptions runOptionsFor(const Session::State& st) {
  machine::RunOptions ro;
  ro.waves = 1;  // one wave-chunk per engine run; streaming = repeated runs
  ro.watchdog = st.opts.watchdog;
  ro.maxInstructionTimes = st.opts.maxInstructionTimes;
  ro.scheduler = st.opts.scheduler;
  ro.expectedOutputs[st.prog->outputName()] = st.prog->outputPerWave();
  return ro;
}

}  // namespace

// ---------------------------------------------------------------------------
// Session API

bool Session::push(const std::string& stream, std::vector<Value> wave) {
  Session::State& s = *st_;
  {
    std::unique_lock<std::mutex> lk(s.mu);
    if (s.failed.load()) return false;
    if (s.inputsClosed) {
      s.failLocked(Status::BadRequest, "push after closeInputs");
      return false;
    }
    if (!s.prog->program.inputs.count(stream)) {
      s.failLocked(Status::BadRequest, "unknown input stream '" + stream + "'");
      return false;
    }
    const auto want =
        static_cast<std::size_t>(s.prog->program.inputLengthPerWave(stream));
    if (wave.size() != want) {
      s.failLocked(Status::BadRequest,
                   "stream '" + stream + "' wave has " +
                       std::to_string(wave.size()) + " values, expected " +
                       std::to_string(want));
      return false;
    }
    auto& q = s.pendingIn[stream];
    const auto alreadyQueued = static_cast<int>(q.size());
    const int wavesOfStream = s.wavesDispatched + alreadyQueued;
    // Count dispatched waves conservatively: dispatch pops one wave of every
    // stream, so per-stream pushed-so-far = wavesDispatched + queue depth.
    if (wavesOfStream >= s.opts.waves) {
      s.failLocked(Status::BadRequest, "more waves pushed than declared");
      return false;
    }
    // Backpressure: block while this stream's undispatched backlog fills the
    // window.  The window drains only through dispatch, which is itself gated
    // on the consumer pulling — so a slow consumer stalls the producer here.
    s.cv.wait(lk, [&] {
      return s.failed.load() ||
             q.size() < s.server->config().sessionWindowWaves;
    });
    if (s.failed.load()) return false;
    q.push_back(std::move(wave));
    if (s.wavesDispatched + static_cast<int>(q.size()) == s.opts.waves &&
        s.pendingWavesLocked() + s.wavesDispatched == s.opts.waves)
      s.inputsClosed = true;  // every stream fully pushed
  }
  st_->server->dispatchReady(st_);
  return !st_->failed.load();
}

void Session::closeInputs() {
  {
    std::lock_guard<std::mutex> lk(st_->mu);
    st_->inputsClosed = true;
    st_->maybeFinishLocked();
  }
  st_->cv.notify_all();
  st_->server->dispatchReady(st_);
}

std::optional<std::vector<Value>> Session::pull() {
  Session::State& s = *st_;
  std::optional<std::vector<Value>> out;
  {
    std::unique_lock<std::mutex> lk(s.mu);
    s.cv.wait(lk, [&] {
      return s.failed.load() ||
             (s.wavesPulled < static_cast<int>(s.outByWave.size()) &&
              s.outByWave[s.wavesPulled].has_value()) ||
             (s.done && s.wavesPulled >= s.wavesCompleted);
    });
    if (s.failed.load()) return std::nullopt;
    if (s.wavesPulled >= static_cast<int>(s.outByWave.size()) ||
        !s.outByWave[s.wavesPulled].has_value())
      return std::nullopt;  // done, everything pulled
    out = std::move(s.outByWave[s.wavesPulled]);
    s.outByWave[s.wavesPulled].reset();
    ++s.wavesPulled;
    s.cv.notify_all();  // reopen the window for blocked dispatch
  }
  st_->server->dispatchReady(st_);  // window may have opened
  return out;
}

void Session::cancel() {
  std::lock_guard<std::mutex> lk(st_->mu);
  if (!st_->done) st_->failLocked(Status::Cancelled, "session cancelled");
}

Response Session::finish() { return st_->completionFut.get(); }

// ---------------------------------------------------------------------------
// Server

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.laneWidth = std::max(1, cfg_.laneWidth);
  cfg_.workers = std::max(1, cfg_.workers);
  cfg_.sessionWindowWaves = std::max<std::size_t>(1, cfg_.sessionWindowWaves);
  cache_.setCapacity(cfg_.maxCachedPrograms);
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i)
    workers_.emplace_back([this] { workerLoop(); });
}

bool Server::admitTenant(const std::string& tenant, double cost,
                         std::int64_t* retryAfterMillis) {
  if (cfg_.rateWavesPerSecond <= 0) return true;
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lk(rmu_);
  TokenBucket& b = buckets_[tenant];
  if (b.last.time_since_epoch().count() == 0) {
    b.tokens = cfg_.rateBurstWaves;  // a new tenant starts with a full burst
  } else {
    const double sec =
        std::chrono::duration<double>(now - b.last).count();
    b.tokens = std::min(cfg_.rateBurstWaves,
                        b.tokens + sec * cfg_.rateWavesPerSecond);
  }
  b.last = now;
  if (b.tokens >= cost) {
    b.tokens -= cost;
    return true;
  }
  if (retryAfterMillis)
    *retryAfterMillis = static_cast<std::int64_t>(
        1000.0 * (cost - b.tokens) / cfg_.rateWavesPerSecond) + 1;
  return false;
}

Server::~Server() { shutdown(); }

void Server::onSessionDone(bool ok) {
  openSessions_.fetch_sub(1);
  std::lock_guard<std::mutex> lk(smu_);
  if (ok)
    ++stats_.requestsCompleted;
  else
    ++stats_.requestsFailed;
}

std::shared_ptr<Session> Server::open(const std::string& source,
                                      const core::CompileOptions& copts,
                                      const SessionOptions& sopts,
                                      Response* why) {
  auto reject = [&](Status st, const std::string& err,
                    std::int64_t retryAfter = 0) {
    if (why) {
      *why = Response{};
      why->status = st;
      why->error = err;
      why->retryAfterMillis = retryAfter;
    }
    std::lock_guard<std::mutex> lk(smu_);
    ++stats_.sessionsRejected;
    return std::shared_ptr<Session>();
  };

  {
    std::lock_guard<std::mutex> lk(qmu_);
    if (!accepting_) return reject(Status::Rejected, "server shutting down");
  }
  if (sopts.waves < 1) return reject(Status::BadRequest, "waves must be >= 1");

  // Rate limit per tenant before consuming any shared resource: a hot
  // tenant burns its own bucket, everyone else's admission is untouched.
  std::int64_t retryAfter = 0;
  if (!admitTenant(sopts.tenant, static_cast<double>(sopts.waves),
                   &retryAfter)) {
    {
      std::lock_guard<std::mutex> lk(smu_);
      ++stats_.rateLimited;
    }
    return reject(Status::Overloaded,
                  "tenant '" + sopts.tenant + "' over rate limit", retryAfter);
  }

  // Admission first (cheap), then the cached compile.
  int open = openSessions_.load();
  do {
    if (open >= cfg_.maxSessions)
      return reject(Status::Rejected,
                    "session limit reached (" +
                        std::to_string(cfg_.maxSessions) + " open)");
  } while (!openSessions_.compare_exchange_weak(open, open + 1));

  auto st = std::make_shared<Session::State>();
  bool cacheHit = false;
  try {
    st->prog = cache_.get(source, copts, &cacheHit);
  } catch (const CompileError& e) {
    openSessions_.fetch_sub(1);
    return reject(Status::CompileError, e.what());
  } catch (const std::exception& e) {
    openSessions_.fetch_sub(1);
    return reject(Status::CompileError, e.what());
  }

  st->server = this;
  st->opts = sopts;
  // Server-side chaos (tests, CI smoke): sessions that bring no plan of
  // their own run under the configured fault plan, guarded and supervised.
  if (cfg_.chaosEnabled && !st->opts.hasFaults) {
    st->opts.hasFaults = true;
    st->opts.faults = cfg_.chaos;
    st->opts.guards = true;
    st->opts.maxAttempts =
        std::max(st->opts.maxAttempts, cfg_.retry.maxAttempts);
  }
  st->t0 = std::chrono::steady_clock::now();
  st->stats.cacheHit = cacheHit;
  st->outByWave.resize(static_cast<std::size_t>(sopts.waves));
  st->completionFut = st->completion.get_future().share();

  {
    std::lock_guard<std::mutex> lk(smu_);
    ++stats_.sessionsOpened;
    // Prune dead weak refs opportunistically so the roster stays bounded.
    std::erase_if(sessions_, [](const auto& w) { return w.expired(); });
    sessions_.push_back(st);
  }
  return std::shared_ptr<Session>(new Session(std::move(st)));
}

std::future<Response> Server::submit(const std::string& source,
                                     const core::CompileOptions& copts,
                                     run::StreamMap inputs,
                                     const SessionOptions& sopts) {
  std::promise<Response> p;
  std::future<Response> fut = p.get_future();

  Response why;
  SessionOptions so = sopts;
  std::shared_ptr<Session> session = open(source, copts, so, &why);
  if (!session) {
    p.set_value(std::move(why));
    return fut;
  }
  session->st_->collectAll = true;

  // Validate whole-run input shapes up front, then feed wave by wave.
  const CachedProgram& prog = *session->st_->prog;
  for (const auto& [name, range] : prog.program.inputs) {
    auto it = inputs.find(name);
    const auto want = static_cast<std::size_t>(
        prog.program.inputLengthPerWave(name) * so.waves);
    if (it == inputs.end() || it->second.size() != want) {
      std::lock_guard<std::mutex> lk(session->st_->mu);
      session->st_->failLocked(
          Status::BadRequest,
          it == inputs.end()
              ? "missing input stream '" + name + "'"
              : "input stream '" + name + "' has " +
                    std::to_string(it->second.size()) + " values, expected " +
                    std::to_string(want));
      p.set_value(session->st_->buildResponseLocked());
      return fut;
    }
  }

  // Feed from a pump thread so submit() never blocks on backpressure; the
  // pump settles `p` with the session's outcome.  Finished pumps are joined
  // by the next submit(), the rest by shutdown() — if shutdown already
  // closed the roster, settle inline.
  auto done = std::make_shared<std::atomic<bool>>(false);
  auto pump = [session, inputs = std::move(inputs), so, p = std::move(p),
               done]() mutable {
    const CachedProgram& cp = *session->st_->prog;
    bool alive = true;
    for (int w = 0; alive && w < so.waves; ++w) {
      for (const auto& [name, range] : cp.program.inputs) {
        const auto per =
            static_cast<std::size_t>(cp.program.inputLengthPerWave(name));
        const std::vector<Value>& whole = inputs[name];
        std::vector<Value> wave(
            whole.begin() + static_cast<long>(w * per),
            whole.begin() + static_cast<long>((w + 1) * per));
        if (!session->push(name, std::move(wave))) {
          alive = false;
          break;
        }
      }
    }
    if (alive) session->closeInputs();
    p.set_value(session->finish());
    done->store(true, std::memory_order_release);
  };
  {
    std::lock_guard<std::mutex> lk(fmu_);
    if (feedersClosed_) {
      session->cancel();
      pump();  // pushes fail fast on the cancelled session; settles p
      return fut;
    }
    // A finished pump has returned from its body: its join is immediate.
    std::erase_if(feeders_, [](Feeder& f) {
      if (!f.done->load(std::memory_order_acquire)) return false;
      f.thread.join();
      return true;
    });
    feeders_.push_back({std::thread(std::move(pump)), std::move(done)});
  }
  return fut;
}

bool Server::enqueue(RunUnit unit) {
  // Overload policy: a full queue sheds the lowest-priority queued run when
  // the incoming one outranks it — the victim's session fails with
  // Status::Overloaded and a Retry-After hint; otherwise the incoming run is
  // refused (the caller attaches the same hint).  Shedding happens outside
  // qmu_ to keep the qmu_ -> session-mutex order acyclic.
  std::optional<RunUnit> shed;
  {
    std::lock_guard<std::mutex> lk(qmu_);
    if (stopping_) return false;
    if (static_cast<int>(queue_.size()) >= cfg_.maxQueuedRuns) {
      auto victim = queue_.end();
      for (auto it = queue_.begin(); it != queue_.end(); ++it)
        if (victim == queue_.end() ||
            it->st->opts.priority < victim->st->opts.priority)
          victim = it;
      if (victim == queue_.end() ||
          victim->st->opts.priority >= unit.st->opts.priority)
        return false;
      shed = std::move(*victim);
      queue_.erase(victim);
    }
    queue_.push_back(std::move(unit));
  }
  if (shed) {
    {
      std::lock_guard<std::mutex> lk(smu_);
      ++stats_.runsShed;
    }
    fail(*shed, Status::Overloaded,
         "shed under overload (priority " +
             std::to_string(shed->st->opts.priority) + ")",
         cfg_.overloadRetryAfterMillis);
  }
  qcv_.notify_one();
  return true;
}

void Server::dispatchReady(const std::shared_ptr<Session::State>& st) {
  for (;;) {
    RunUnit unit;
    {
      std::lock_guard<std::mutex> lk(st->mu);
      if (st->failed.load()) return;
      // In-flight window: dispatched-but-unconsumed waves.  One-shot
      // sessions have no consumer; bound in-flight runs instead so outputs
      // accumulate but engine work stays windowed.
      const int consumed = st->collectAll ? st->wavesCompleted : st->wavesPulled;
      if (st->wavesDispatched - consumed >=
          static_cast<int>(cfg_.sessionWindowWaves))
        return;
      if (st->pendingWavesLocked() == 0) return;
      unit.st = st;
      unit.wave = st->wavesDispatched++;
      for (auto& [name, q] : st->pendingIn) {
        unit.inputs.emplace(name, std::move(q.front()));
        q.pop_front();
      }
      st->cv.notify_all();  // pushers blocked on the stream backlog
    }
    if (!enqueue(std::move(unit))) {
      std::lock_guard<std::mutex> lk(st->mu);
      if (stoppingNow())
        st->failLocked(Status::Cancelled, "server shutting down");
      else
        st->failLocked(Status::Overloaded, "run queue full",
                       cfg_.overloadRetryAfterMillis);
      return;
    }
  }
}

bool Server::stoppingNow() {
  std::lock_guard<std::mutex> lk(qmu_);
  return stopping_;
}

void Server::workerLoop() {
  for (;;) {
    std::vector<RunUnit> batch;
    {
      std::unique_lock<std::mutex> lk(qmu_);
      qcv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      // Optionally linger for a fuller batch before taking a narrow one.
      if (cfg_.laneWidth > 1 && cfg_.batchWindowMicros > 0 &&
          static_cast<int>(queue_.size()) < cfg_.laneWidth) {
        qcv_.wait_for(lk, std::chrono::microseconds(cfg_.batchWindowMicros),
                      [&] {
                        return stopping_ ||
                               static_cast<int>(queue_.size()) >= cfg_.laneWidth;
                      });
        if (queue_.empty()) continue;
      }
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      if (cfg_.laneWidth > 1 && batchable(*batch.front().st)) {
        for (auto it = queue_.begin();
             it != queue_.end() &&
             static_cast<int>(batch.size()) < cfg_.laneWidth;) {
          if (!it->st->failed.load() && batchable(*it->st) &&
              compatible(*batch.front().st, *it->st)) {
            batch.push_back(std::move(*it));
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
      }
    }
    execute(std::move(batch));
  }
}

void Server::deliver(RunUnit& unit, std::vector<Value> outWave,
                     const machine::MachineResult& res, int lanes) {
  Session::State& s = *unit.st;
  std::lock_guard<std::mutex> lk(s.mu);
  if (s.failed.load()) return;
  s.outByWave[static_cast<std::size_t>(unit.wave)] = std::move(outWave);
  ++s.wavesCompleted;
  s.stats.cycles += res.cycles;
  s.stats.firings += res.totalFirings;
  s.stats.maxLanes = std::max(s.stats.maxLanes, lanes);
  s.stats.faults.add(res.faults);
  s.maybeFinishLocked();
  s.cv.notify_all();
}

void Server::fail(RunUnit& unit, Status st, const std::string& why,
                  std::int64_t retryAfterMillis) {
  std::lock_guard<std::mutex> lk(unit.st->mu);
  unit.st->failLocked(st, why, retryAfterMillis);
}

void Server::runSolo(RunUnit& unit) {
  Session::State& s = *unit.st;
  if (s.failed.load()) return;  // sibling wave already failed the session
  machine::RunOptions ro = runOptionsFor(s);
  ro.amInitial = s.opts.amInitial;
  guard::Config gcfg;
  if (s.opts.guards) ro.guards = &gcfg;
  if (s.opts.hasFaults) ro.faults = &s.opts.faults;
  obs::MetricsSink metrics;
  if (s.opts.wantMetrics) ro.metrics = &metrics;
  try {
    machine::MachineResult res;
    if (s.opts.maxAttempts > 1) {
      // Supervised wave-run: a faulted wave restores its last clean snapshot
      // (or restarts — the wave's inputs are still in `unit`) and retries,
      // without replaying the session's earlier waves.
      recover::RetryPolicy policy = cfg_.retry;
      policy.maxAttempts = s.opts.maxAttempts;
      if (s.opts.checkpointEvery > 0)
        policy.checkpointEvery = s.opts.checkpointEvery;
      recover::Report report;
      res = recover::superviseRun(s.prog->program.graph, &s.prog->exec,
                                  cfg_.machine, unit.inputs, ro, policy,
                                  &report);
      {
        std::lock_guard<std::mutex> lk(s.mu);
        s.stats.attempts = std::max(s.stats.attempts, report.attemptsUsed());
        if (report.recovered) ++s.stats.recoveredWaves;
      }
      if (report.recovered) {
        std::lock_guard<std::mutex> lk(smu_);
        ++stats_.wavesRecovered;
      }
    } else {
      res = machine::simulate(s.prog->program.graph, s.prog->exec,
                              cfg_.machine, unit.inputs, ro);
    }
    if (!res.completed) {
      fail(unit, Status::RunError,
           res.note.empty() ? "run ended with outputs incomplete" : res.note);
      return;
    }
    if (s.opts.wantMetrics) {
      const obs::TraceMeta meta = obs::TraceMeta::of(s.prog->program.graph);
      std::ostringstream os;
      metrics.writeJson(os, &meta);
      std::lock_guard<std::mutex> lk(s.mu);
      s.metricsJson = os.str();  // last wave's view
    }
    deliver(unit, std::move(res.outputs[s.prog->outputName()]), res, 1);
  } catch (const recover::RecoveryExhausted& e) {
    const std::string& type = e.report().attempts.empty()
                                  ? std::string()
                                  : e.report().attempts.back().errorType;
    fail(unit,
         type == "stall"       ? Status::Stalled
         : type == "violation" ? Status::GuardViolation
                               : Status::RunError,
         e.what());
  } catch (const run::StallError& e) {
    fail(unit, Status::Stalled, e.what());
  } catch (const guard::ViolationError& e) {
    fail(unit, Status::GuardViolation, e.what());
  } catch (const ValueError& e) {
    fail(unit, Status::RunError, e.what());
  } catch (const std::exception& e) {
    fail(unit, Status::RunError, e.what());
  }
}

void Server::execute(std::vector<RunUnit> batch) {
  // Drop members whose session already failed (skipped work still counts as
  // "handled": the failing path already settled the session's promise).
  std::erase_if(batch, [](const RunUnit& u) { return u.st->failed.load(); });
  if (batch.empty()) return;

  {
    std::lock_guard<std::mutex> lk(smu_);
    ++stats_.runsExecuted;
    stats_.lanesExecuted += batch.size();
    if (batch.size() > 1) ++stats_.batchedRuns;
  }

  if (batch.size() == 1) {
    runSolo(batch.front());
    return;
  }

  // Lane-batched path: one engine run over pack Values.
  Session::State& head = *batch.front().st;
  try {
    std::vector<const run::StreamMap*> lanes;
    lanes.reserve(batch.size());
    for (const RunUnit& u : batch) lanes.push_back(&u.inputs);
    const run::StreamMap packed = packLanes(lanes);
    machine::RunOptions ro = runOptionsFor(head);
    machine::MachineResult res = machine::simulate(
        head.prog->program.graph, head.prog->exec, cfg_.machine, packed, ro);
    if (!res.completed)
      throw ValueError(res.note.empty() ? "batched run incomplete" : res.note);
    std::vector<run::StreamMap> perLane =
        unpackLanes(res.outputs, batch.size());
    for (std::size_t l = 0; l < batch.size(); ++l)
      deliver(batch[l],
              std::move(perLane[l][head.prog->outputName()]), res,
              static_cast<int>(batch.size()));
    return;
  } catch (const std::exception&) {
    // A value error in one lane, a stall, or any other failure inside a
    // shared run: no lane's outputs are trustworthy as a group, so rerun
    // every member alone.  The poisoned tenant then fails with its own
    // diagnosis and the innocent ones complete bit-identically to a
    // never-batched run.
    std::lock_guard<std::mutex> lk(smu_);
    ++stats_.batchFallbacks;
  }
  for (RunUnit& u : batch) {
    {
      std::lock_guard<std::mutex> lk(u.st->mu);
      ++u.st->stats.soloReruns;
    }
    runSolo(u);
  }
}

void Server::shutdown() {
  {
    std::lock_guard<std::mutex> lk(qmu_);
    if (stopping_) return;
    accepting_ = false;
    stopping_ = true;
  }
  qcv_.notify_all();
  // Cancel sessions that cannot complete; settled ones ignore this.
  std::vector<std::weak_ptr<Session::State>> roster;
  {
    std::lock_guard<std::mutex> lk(smu_);
    roster = sessions_;
  }
  for (auto& w : roster) {
    if (auto st = w.lock()) {
      std::lock_guard<std::mutex> lk(st->mu);
      if (!st->done) st->failLocked(Status::Cancelled, "server shutdown");
    }
  }
  // Join the submit() pumps first (cancelled sessions unblock them), then
  // the executors.
  std::vector<Feeder> pumps;
  {
    std::lock_guard<std::mutex> lk(fmu_);
    feedersClosed_ = true;
    pumps = std::move(feeders_);
  }
  for (Feeder& f : pumps)
    if (f.thread.joinable()) f.thread.join();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lk(smu_);
  return stats_;
}

}  // namespace valpipe::serve
