// serve_wire: the valpipe-serve session protocol (Open / Push / Pull) over
// a local socket into serve::serveConnection.
//
// One generator thread drives one connection as a closed loop that keeps
// kOutstanding single-wave sessions open: it opens and fills sessions until
// kOutstanding are in flight, then pulls the oldest one's output wave and
// end-of-stream chunk, checks the wave against val::evaluate, and opens the
// next.  The server runs lane width 8, two executor workers and a 500 us
// batch window; with the generator and the connection thread that is four
// threads.  The session mix is a seeded 3:1 draw of fig6 forall and fig5
// conditional at m = 1024: fig6 lanes always agree, fig5 branches on data,
// so its batches diverge and are rerun solo.
//
// Sessions, not one-shot Run requests: Server::submit starts an input pump
// thread per request that is joined only at shutdown, so a long run of
// one-shot requests would measure thread creation (see README.md).
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <random>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "figures.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "serve/wire.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kM = 1024;
constexpr std::size_t kOutstanding = 32;
constexpr std::size_t kPool = 128;  ///< distinct seeded sessions, reused in turn
/// Measurement window; a traced run alternates untraced and traced windows.
constexpr double kSegmentS = 0.5;
/// In traced windows, one session in this many is traced: every session
/// would make ~13 spans, half a million per run.
constexpr std::uint32_t kTraceEvery = 16;

struct Request {
  run::StreamMap inputs;
  std::vector<Value> expected;
  bool conditional = false;  ///< fig5 (data-divergent) rather than fig6
};

/// The two programs and kPool seeded sessions over them.
struct Pool {
  std::string fig5 = withM(kM, kFig5);
  std::string fig6 = withM(kM, kFig6);
  std::vector<Request> requests;
};

Pool makePool(unsigned seed, bool corrupt) {
  Pool pool;
  const val::Module mod5 = core::frontend(pool.fig5);
  const val::Module mod6 = core::frontend(pool.fig6);
  std::mt19937_64 rng(0x5eed0000ull + seed);
  // Exactly 3:1 fig6 : fig5, in seeded order, so every seed serves the same
  // mix.
  std::vector<bool> conditional(kPool, false);
  std::fill(conditional.begin(), conditional.begin() + kPool / 4, true);
  std::shuffle(conditional.begin(), conditional.end(), rng);
  for (std::size_t k = 0; k < kPool; ++k) {
    Request r;
    r.conditional = conditional[k];
    const val::Module& mod = r.conditional ? mod5 : mod6;
    val::ArrayMap params;
    for (const val::Param& p : mod.params) {
      params[p.name] = randomArray(*p.type.range, rng(), -1, 1);
      r.inputs[p.name] = params[p.name].elems;
    }
    r.expected = val::evaluate(mod, params).result.elems;
    pool.requests.push_back(std::move(r));
  }
  // Self-check: one served output no correct server can produce, on a
  // request the cache warm-up does not use.
  if (corrupt) {
    Request& r = pool.requests[kPool - 1];
    r.expected[0] = Value(r.expected[0].toReal() + 1.0);
  }
  return pool;
}

serve::ServerConfig serverConfig() {
  serve::ServerConfig cfg;
  cfg.laneWidth = 8;
  cfg.workers = 2;
  cfg.batchWindowMicros = 500;
  return cfg;
}

/// The client end of one connection: framed writes and reads under spans,
/// counting the bytes each way.
class Client {
 public:
  Client(int fd, Tracer& t) : fd_(fd), t_(t) {}

  void send(const std::vector<std::uint8_t>& payload, std::uint64_t op) {
    Scope s(t_, "serve.write_frame", op);
    serve::writeFrame(fd_, payload);
    bytes += payload.size() + 4;
  }

  serve::ReplyMsg receive(std::uint64_t op) {
    std::optional<std::vector<std::uint8_t>> frame;
    {
      Scope s(t_, "serve.read_frame", op);
      frame = serve::readFrame(fd_);
    }
    if (!frame) throw std::runtime_error("server closed the connection");
    bytes += frame->size() + 4;
    Scope s(t_, "serve.wire_parse", op);
    return serve::parseReply(frame->data(), frame->size());
  }

  /// One request / reply round trip under span `name`.
  template <class Encode>
  serve::ReplyMsg roundTrip(const char* name, std::uint64_t op, Encode enc) {
    Scope s(t_, name, op);
    std::vector<std::uint8_t> payload;
    {
      Scope e(t_, "serve.wire_encode", op);
      payload = enc();
    }
    send(payload, op);
    return receive(op);
  }

  std::uint64_t bytes = 0;

 private:
  int fd_;
  Tracer& t_;
};

/// A server, a connected socket pair and the thread serving its far end.
struct Rig {
  serve::Server server{serverConfig()};
  int fds[2] = {-1, -1};
  std::thread conn;

  Rig() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
      throw std::runtime_error("socketpair failed");
    conn = std::thread([this] { serve::serveConnection(server, fds[1], fds[1]); });
  }
  ~Rig() {
    ::shutdown(fds[0], SHUT_RDWR);  // EOF ends serveConnection
    conn.join();
    ::close(fds[0]);
    ::close(fds[1]);
    server.shutdown();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
};

struct Open {
  std::uint32_t id = 0;
  const Request* req = nullptr;
  Clock::time_point opened;
};

/// Opens session `id` for `r` and pushes its inputs.  Empty on success,
/// else the server's error.
std::string openSession(Client& c, std::uint32_t id, const Pool& pool,
                        const Request& r) {
  // Protocol defaults: one wave, EventDriven, fused FIFOs.
  const serve::WireOptions o;
  const std::string& source = r.conditional ? pool.fig5 : pool.fig6;
  serve::ReplyMsg rep = c.roundTrip("serve.open", id, [&] {
    return serve::encodeOpen(id, source, o);
  });
  if (rep.type != serve::MsgType::Opened) return "open: " + rep.error;
  for (const auto& [name, wave] : r.inputs) {
    rep = c.roundTrip("serve.push", id,
                      [&] { return serve::encodePush(id, name, wave); });
    if (rep.type != serve::MsgType::Ack) return "push: " + rep.error;
  }
  return {};
}

/// Pulls session `s`'s wave and end-of-stream chunk; empty when the wave
/// equals the evaluator's.
std::string finishSession(Client& c, const Open& s) {
  serve::ReplyMsg rep = c.roundTrip("serve.pull", s.id,
                                    [&] { return serve::encodePull(s.id); });
  if (rep.type != serve::MsgType::OutputChunk || !rep.hasWave)
    return "pull: " + rep.error;
  std::string bad = compareStream(rep.wave, s.req->expected, 0.0);
  rep = c.roundTrip("serve.close", s.id, [&] { return serve::encodePull(s.id); });
  if (bad.empty() && (rep.type != serve::MsgType::OutputChunk || rep.hasWave))
    bad = "end of stream: " + rep.error;
  return bad;
}

/// Runs one session start to finish (cache warm-up).
void warm(Client& c, std::uint32_t id, const Pool& pool, const Request& r) {
  std::string bad = openSession(c, id, pool, r);
  if (bad.empty()) bad = finishSession(c, {id, &r, Clock::now()});
  if (!bad.empty()) throw std::runtime_error("warm-up session: " + bad);
}

}  // namespace

Report runServeWire(const Args& a) {
  Report rep;
  Pool pool;
  std::unique_ptr<Rig> rig;
  std::vector<std::unique_ptr<Rig>> spare;  // earlier set-ups, torn down later
  Tracer tracer;
  std::uint32_t nextId = 1;
  const double setup = timedSetups(5, [&] {
    if (rig) spare.push_back(std::move(rig));
    pool = makePool(a.seed, a.corrupt);
    rig = std::make_unique<Rig>();
    Client warmer(rig->fds[0], tracer);
    nextId = 1;
    // One session of each program, the first of its kind in the pool.
    for (bool cond : {true, false})
      warm(warmer, nextId++, pool,
           *std::find_if(pool.requests.begin(), pool.requests.end(),
                         [&](const Request& r) { return r.conditional == cond; }));
  });
  spare.clear();

  Client client(rig->fds[0], tracer);
  const serve::ServerStats s0 = rig->server.stats();
  const serve::CacheStats c0 = rig->server.cacheStats();
  std::deque<Open> open;
  // Completed sessions' latencies, by kSegmentS window of the issuing
  // period (sessions drained after it are checked but not timed).
  const auto windows = static_cast<std::size_t>(std::ceil(a.seconds / kSegmentS));
  std::vector<std::vector<double>> latByWindow(windows);
  std::int64_t sessions = 0;
  std::int64_t tracedOpens = 0, conditional = 0;
  std::size_t next = 0;

  const auto start = Clock::now();
  const auto traceSession = [&](std::uint32_t id) {
    return a.trace && id % kTraceEvery == 0 &&
           static_cast<std::int64_t>(secondsSince(start) / kSegmentS) % 2 == 1;
  };
  bool issuing = true;
  while (issuing || !open.empty()) {
    if (issuing && secondsSince(start) >= a.seconds) issuing = false;
    while (issuing && open.size() < kOutstanding) {
      const Request& r = pool.requests[next++ % kPool];
      const Open s{nextId++, &r, Clock::now()};
      tracer.setOn(traceSession(s.id));
      tracedOpens += tracer.on() ? 1 : 0;
      ++rep.attempted;
      conditional += r.conditional ? 1 : 0;
      if (std::string bad = openSession(client, s.id, pool, r); !bad.empty())
        rep.fail("session " + std::to_string(s.id) + ": " + bad);
      else
        open.push_back(s);
    }
    if (open.empty()) continue;
    const Open s = open.front();
    open.pop_front();
    tracer.setOn(traceSession(s.id));
    if (std::string bad = finishSession(client, s); !bad.empty()) {
      rep.fail("session " + std::to_string(s.id) + ": " + bad);
      continue;
    }
    ++sessions;
    const auto w = static_cast<std::size_t>(secondsSince(start) / kSegmentS);
    if (w < windows) latByWindow[w].push_back(secondsSince(s.opened) * 1e3);
  }
  tracer.setOn(false);

  const serve::ServerStats s1 = rig->server.stats();
  const serve::CacheStats c1 = rig->server.cacheStats();
  // The least contended windows (kKeepShare, common.hpp) of one kind:
  // traced (odd) or untraced (even) in a traced run, all of them otherwise.
  // Returns their sessions per second and their sessions' latencies.
  const auto best = [&](int kind, std::vector<double>* lat) {
    std::vector<std::size_t> ids;
    std::vector<double> cost;
    for (std::size_t w = 0; w < windows; ++w)
      if (!a.trace || static_cast<int>(w % 2) == kind) {
        ids.push_back(w);
        cost.push_back(-static_cast<double>(latByWindow[w].size()));
      }
    double n = 0;
    const std::vector<std::size_t> kept = cheapest(cost, kKeepShare);
    for (std::size_t i : kept) {
      const std::vector<double>& l = latByWindow[ids[i]];
      n += static_cast<double>(l.size());
      if (lat) lat->insert(lat->end(), l.begin(), l.end());
    }
    return n / (static_cast<double>(kept.size()) * kSegmentS);
  };
  std::vector<double> latMs;
  const double rps = best(0, &latMs);
  const double runs = static_cast<double>(s1.runsExecuted - s0.runsExecuted);
  const double fallbacks =
      static_cast<double>(s1.batchFallbacks - s0.batchFallbacks);
  rig.reset();

  rep.e2e = {
      {"setup_s", setup, "s"},
      {"peak_rss_mb", peakRssMb(), "MiB"},
      {"throughput_per_s", rps, "1/s"},
      {"latency_p50_ms", median(latMs), "ms"},
      {"latency_p90_ms", quantile(latMs, 0.9), "ms"},
  };
  rep.notes = {
      {"serve_rps", rps, "req/s"},
      {"serve_p50_ms", median(latMs), "ms"},
      {"serve_p99_ms", quantile(latMs, 0.99), "ms"},
      {"sessions", static_cast<double>(sessions), "sessions"},
      {"latency_samples", static_cast<double>(latMs.size()), "sessions"},
      {"fig5_sessions", static_cast<double>(conditional), "sessions"},
      {"engine_runs", runs, "runs"},
      {"batched_runs", static_cast<double>(s1.batchedRuns - s0.batchedRuns),
       "runs"},
      {"batch_fallbacks", fallbacks, "runs"},
      {"lanes_per_run",
       static_cast<double>(s1.lanesExecuted - s0.lanesExecuted) / runs,
       "lanes"},
  };
  if (a.trace) {
    // Per-message means from the spans of the traced segments.
    std::map<std::string, std::pair<double, double>> per;  // total s, count
    for (const Span& sp : tracer.spans()) {
      auto& [tot, n] = per[sp.name];
      tot += (sp.endNs - sp.startNs) * 1e-9;
      n += 1;
    }
    const auto meanUs = [&](const char* name) {
      const auto& [tot, n] = per[name];
      return n > 0 ? tot * 1e6 / n : 0.0;
    };
    const double traced = std::max<double>(1.0, tracedOpens);
    const double rate1 = best(1, nullptr);
    rep.layer = {
        {"serve.open_us", meanUs("serve.open"), "us"},
        {"serve.push_us", meanUs("serve.push"), "us"},
        {"serve.pull_us", meanUs("serve.pull"), "us"},
        {"serve.lanes_per_run",
         static_cast<double>(s1.lanesExecuted - s0.lanesExecuted) / runs,
         "lanes"},
        {"serve.batch_fallbacks", fallbacks * 1000.0 / static_cast<double>(sessions),
         "per_1k_sessions"},
        {"serve.wire_encode_us", per["serve.wire_encode"].first * 1e6 / traced,
         "us"},
        {"serve.wire_parse_us", per["serve.wire_parse"].first * 1e6 / traced,
         "us"},
        {"serve.bytes_per_request",
         static_cast<double>(client.bytes) / static_cast<double>(sessions),
         "bytes"},
        {"serve.cache_misses", static_cast<double>(c1.misses - c0.misses),
         "count"},
        {"trace.overhead_pct", (rate1 > 0 ? rps / rate1 - 1.0 : 0.0) * 100.0,
         "%"},
    };
  }
  rep.tracedOps = tracedOpens;
  rep.tracer = std::move(tracer);
  return rep;
}

}  // namespace perfbench
