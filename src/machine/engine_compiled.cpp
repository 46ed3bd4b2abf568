// SchedulerKind::Compiled — the steady-state backend.
//
// A balanced graph's run has three phases (§3): a fill transient while the
// pipe loads, a periodic steady state where every cell fires once per
// hyper-period, and a drain transient as the sources exhaust.  The event
// engine spends the same per-token effort on all three; only the transients
// need it.  The compiled scheduler therefore runs the ordinary event loop
// (detail::Engine::runEventLoop) with a per-step hook that
//
//   1. mirrors the time wheel's pending wakes (Engine::wakeLog), so the
//      wheel can be rebuilt, shifted in time, after a jump;
//   2. once past an arming time that covers the fill transient, snapshots the
//      machine state in shift-canonical form — every timestamp taken relative
//      to `now` and floored at a horizon below which it can never influence
//      behavior again — and watches for the state to recur;
//   3. on a recurrence with at least one firing in between (a steady period
//      of measured length δ), fast-forwards N whole periods at once: counters
//      advance by N times the per-window delta, timestamps shift by K = N·δ,
//      and every value the skipped windows would have produced (output
//      elements, slot occupants, FIFO ring contents) is reconstructed.
//
// Two graph classes qualify, with two value paths:
//
//   IR-accepted graphs (sched::SteadySchedule accepted: no gates, merges,
//   array memory, feedback or initial tokens).  Their *timing* trajectory is
//   value-independent — values flow only into outputs and arithmetic — so the
//   canonical snapshot compares timing only, and values are reconstructed by
//   token index with sched::SteadyLoop, a straight-line loop over
//   preallocated blocks, vectorized when the values are provably all real.
//
//   Control-static graphs (declined by the IR, SteadySchedule::controlStatic:
//   no input data reaches a gate port or merge selector, no array memory).
//   Here values do steer enabling, but only values in the backward cone of
//   the control ports (sched::controlCone), and those are computed from
//   compile-time BoolSeq/IndexSeq sequences.  So
//     - the snapshot words also hold the value of every full control-cone
//       slot and every live control-cone FIFO ring entry;
//     - the jump stays inside the control pattern: N is capped so that each
//       control-cone source emits, over the skipped range, exactly the base
//       window's values again (token k equals token k - dE, dE its emits per
//       window).  A cap below two windows — the machine sits at a pattern
//       boundary — re-arms detection instead of ending it, so the interior
//       of every wave is skipped, not just the first;
//     - values come from a firing tape: between the base snapshot and its
//       recurrence the hook records every step's fired cells (and each
//       composite FIFO's emit/accept decision), and the jump replays that
//       tape N times on values alone, writing straight into the slots, the
//       FIFO rings and the output streams.
//
// Bit-identity argument: the engine is deterministic, and the canonical
// snapshot plus the pending-wake mirror is exactly the state that determines
// the future trajectory — timing, and on control-static graphs the control
// values too.  Values outside the control cone never reach an enabling
// decision, and the sources inside it repeat the base window's values over
// the jump, so a recurrence proves the trajectory from t1 replays the window
// (t0, t1] shifted by δ, until a source exhausts, a control pattern turns,
// or an expected-output count completes.  The jump bound N stops short of
// all three: two windows before a source or count limit, and before the
// first control token that differs from its base-window counterpart.  The
// IR loop applies the same ops:: routines to the same token values; the
// tape replay goes further and repeats the very sequence of reads, ops and
// writes that Engine::fire performs, in the same order (within one
// instruction time no firing reads a slot another firing writes, and across
// steps the order is the run's).  So outputs — and any ValueError a skipped
// window would have thrown — are identical too.
//
// The fast path is declined at run time (the event loop still runs, under
// the Compiled label, with a diagnostic in MachineResult::compiled.reason)
// when the graph's control depends on input data or array memory, or when
// the run carries state a bulk jump cannot advance or must not skip: fault
// injection, a placement (per-PE routing state), observability sinks (every
// skipped firing would be a missing trace/metrics event), finite
// function-unit pools (per-unit freeAt state), or two Output cells feeding
// one stream (per-stream append order across cells is time-interleaved).
#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "machine/engine_impl.hpp"
#include "sched/control.hpp"
#include "sched/schedule.hpp"
#include "sched/steady_loop.hpp"
#include "support/check.hpp"

namespace valpipe::machine::detail {

namespace {

/// One shift-canonical machine snapshot plus the monotone counters needed to
/// form per-window deltas.
struct Snap {
  std::int64_t t = 0;
  std::vector<std::int64_t> words;  ///< canonical state, compared verbatim
  std::vector<std::uint64_t> firings;
  std::uint64_t totalFirings = 0;
  exec::PacketCounters packets;
  std::vector<std::int64_t> emitted;       ///< CellDyn::emitted per cell
  std::vector<std::int64_t> fifoAccepted;  ///< per composite (driver order)
  std::vector<std::int64_t> fifoEmitted;
  std::array<std::uint64_t, 4> fuBusy{};
  std::vector<std::int64_t> stopHave;
  std::vector<std::int64_t> gSent, gAcked, gDelivered, gConsumed;
};

/// Appends a prefix-free encoding of `v` (kind, then payload bits).
void encodeValue(const Value& v, std::vector<std::int64_t>& w) {
  w.push_back(static_cast<std::int64_t>(v.kind()));
  switch (v.kind()) {
    case ValueKind::Boolean: w.push_back(v.asBoolean() ? 1 : 0); return;
    case ValueKind::Integer: w.push_back(v.asInteger()); return;
    case ValueKind::Real:
      w.push_back(std::bit_cast<std::int64_t>(v.asReal()));
      return;
    case ValueKind::Pack:
      w.push_back(static_cast<std::int64_t>(v.laneWidth()));
      for (std::size_t i = 0; i < v.laneWidth(); ++i) encodeValue(v.lane(i), w);
      return;
  }
}

/// How the tape replay evaluates one cell (Engine::fire's cases).
/// Copy is the Pure identity (Id, depth-1 Fifo): its result is its operand.
enum class Kind : std::uint8_t {
  Source, Copy, Pure, Merge, Output, Sink, Ring
};

/// A cell's firing, pre-resolved for the tape replay: operand values by
/// address (slot occupant or literal) and destination spans.
struct ReplayCell {
  Kind kind = Kind::Sink;
  dfg::Op op = dfg::Op::Id;
  std::array<const Value*, 3> in{};  ///< data operands (merge uses all three)
  const Value* gate = nullptr;       ///< gate operand, when gated
  exec::DestSpan always, onT, onF;
};

/// A tape entry: the fired cell, plus a composite FIFO's phase-A decision.
constexpr std::uint32_t kTapeAccept = 1u;
constexpr std::uint32_t kTapeEmit = 2u;
constexpr int kTapeShift = 2;

class CompiledDriver {
 public:
  CompiledDriver(Engine& e, const sched::SteadySchedule& ss)
      : e_(e), ss_(ss), tapeMode_(!ss.accepted) {
    const std::int64_t period = e_.fifoTiming().period();
    // Below this floor every timestamp is behaviorally dead: no enabling
    // test, rate bound, or ring acknowledge-wave check reaches further back.
    horizon_ = e_.settleWindow() + e_.wakeHorizon() +
               (e_.eg.maxFifoDepth() + 2) * period + 4;
    // Arm after the fill transient: the deepest pipeline (or FIFO ring) has
    // loaded and every composite ring has wrapped by then.
    arm_ = (e_.eg.maxFifoDepth() + 2) * period + e_.wakeHorizon() +
           e_.settleWindow();
    maxSpan_ = 16 * (period + e_.wakeHorizon()) + 64;
    for (std::uint32_t c = 0; c < e_.eg.size(); ++c) {
      const exec::Cell& cl = e_.eg.cell(c);
      if (cl.op == dfg::Op::Fifo && cl.fifoDepth >= 2) composites_.push_back(c);
      if (dfg::isSource(cl.op)) sources_.push_back(c);
      if (cl.op == dfg::Op::Output) outputCells_.push_back(c);
    }
    if (tapeMode_) prepareTape();
  }

  /// The wake log the engine appends to; drained into the pending mirror
  /// at the start of every step.
  std::vector<std::pair<std::uint32_t, std::int64_t>>* wakeBuf = nullptr;

  void afterStep(const std::vector<std::uint32_t>& toFire) {
    for (const auto& [cell, at] : *wakeBuf)
      if (at > e_.now) pending_.insert({at, cell});
    wakeBuf->clear();
    while (!pending_.empty() && pending_.begin()->first <= e_.now)
      pending_.erase(pending_.begin());

    if (done_ || e_.now < arm_) return;
    if (!haveBase_) {
      rebase();
      return;
    }
    if (tapeMode_) record(toFire);
    takeSnap(cur_);
    if (cur_.words == base_.words && cur_.totalFirings > base_.totalFirings) {
      tryJump();
      return;
    }
    if (e_.now - base_.t > span_) {
      // The window since the base never recurred: the base lies in a
      // transient.  Rebase and widen the window (doubling, as in Brent's
      // cycle detection, so a transient of length L costs O(L) steps), and
      // give up after enough full-width attempts that the run is clearly
      // not periodic at any phase we would catch (jitter-free runs recur
      // within one maxSpan_).
      if (span_ >= maxSpan_ && ++attempts_ >= kMaxAttempts) {
        giveUp("no steady period detected");
        return;
      }
      span_ = std::min(2 * span_, maxSpan_);
      restartFromCur();
    }
  }

 private:
  static constexpr int kMaxAttempts = 16;
  static constexpr std::int64_t kMinSpan = 4;

  void giveUp(const char* why) {
    done_ = true;
    if (e_.result.compiled.reason.empty()) e_.result.compiled.reason = why;
  }

  /// Takes the current state as the new base window start.
  void rebase() {
    takeSnap(base_);
    haveBase_ = true;
    tape_.clear();
  }
  /// Same, reusing the snapshot just taken of the current state.
  void restartFromCur() {
    std::swap(base_, cur_);
    tape_.clear();
  }
  /// Drops the base; the next step starts a fresh, narrow search.
  void rearm() {
    haveBase_ = false;
    span_ = kMinSpan;
  }

  void record(const std::vector<std::uint32_t>& toFire) {
    for (std::uint32_t c : toFire) {
      std::uint32_t entry = c << kTapeShift;
      if (rc_[c].kind == Kind::Ring) {
        const exec::FifoState& f = e_.fifoDyn[c];
        entry |= (f.doEmit ? kTapeEmit : 0u) | (f.doAccept ? kTapeAccept : 0u);
      }
      tape_.push_back(entry);
    }
  }

  void canonWords(std::vector<std::int64_t>& w) const {
    w.clear();
    const std::int64_t now = e_.now;
    const std::int64_t floor = -horizon_;
    const auto canon = [&](std::int64_t tau) {
      return std::max(tau - now, floor);
    };
    for (std::uint32_t s = 0;
         s < static_cast<std::uint32_t>(e_.eg.slotCount()); ++s) {
      const exec::Slot& sl = e_.slots[s];
      w.push_back(sl.full ? 1 : 0);
      w.push_back(canon(sl.readyAt));
      w.push_back(canon(sl.freedAt));
    }
    for (std::uint32_t c = 0; c < e_.eg.size(); ++c)
      w.push_back(canon(e_.cellDyn[c].busyUntil));
    w.push_back(canon(e_.lastFire_));
    for (std::uint32_t c : composites_) {
      const exec::FifoState& f = e_.fifoDyn[c];
      const auto ring = static_cast<std::uint32_t>(f.ring());
      w.push_back(f.count);
      w.push_back(f.accepted >= f.ring() ? 1 : 0);
      w.push_back(f.emitted >= f.ring() ? 1 : 0);
      w.push_back(canon(f.lastAccept));
      w.push_back(canon(f.lastEmit));
      // Live ring entries, head-relative (head tracks emitted mod ring, so
      // relative positions align across snapshots); dead entries are stale
      // storage the firing rule never reads.
      for (std::uint32_t i = 0; i < f.count; ++i)
        w.push_back(canon(f.readyAt[(f.head + i) % ring]));
      // Emit times, aligned relative to the next accept (canAccept reads
      // emitAt[accepted % ring] for the backward acknowledge wave).
      for (std::uint32_t i = 0; i < ring; ++i)
        w.push_back(canon(f.emitAt[static_cast<std::size_t>(
            (f.accepted + i) % f.ring())]));
    }
    // Control values: the tokens a future gate or merge decision can read.
    for (std::uint32_t s : ctlSlots_)
      if (e_.slots[s].full) encodeValue(e_.slots[s].v, w);
    for (std::uint32_t c : ctlRings_) {
      const exec::FifoState& f = e_.fifoDyn[c];
      const auto ring = static_cast<std::uint32_t>(f.ring());
      for (std::uint32_t i = 0; i < f.count; ++i)
        encodeValue(f.vals[(f.head + i) % ring], w);
    }
    // The pending-wake mirror is part of the state that drives the future:
    // two snapshots only recur if the wheel holds the same future, shifted.
    w.push_back(static_cast<std::int64_t>(pending_.size()));
    for (const auto& [at, cell] : pending_) {
      w.push_back(at - now);
      w.push_back(static_cast<std::int64_t>(cell));
    }
  }

  void takeSnap(Snap& s) const {
    const std::size_t n = e_.eg.size();
    s.t = e_.now;
    canonWords(s.words);
    s.firings = e_.firings;
    s.totalFirings = e_.totalFirings;
    s.packets = e_.packets;
    s.emitted.resize(n);
    for (std::uint32_t c = 0; c < n; ++c) s.emitted[c] = e_.cellDyn[c].emitted;
    s.fifoAccepted.clear();
    s.fifoEmitted.clear();
    for (std::uint32_t c : composites_) {
      s.fifoAccepted.push_back(e_.fifoDyn[c].accepted);
      s.fifoEmitted.push_back(e_.fifoDyn[c].emitted);
    }
    s.fuBusy = e_.fu.busy();
    s.stopHave.clear();
    for (std::size_t i = 0; i < e_.stop.size(); ++i)
      s.stopHave.push_back(e_.stop.have(i));
    if (e_.gst) {
      s.gSent = e_.gst->sent;
      s.gAcked = e_.gst->acked;
      s.gDelivered = e_.gst->delivered;
      s.gConsumed = e_.gst->consumed;
    }
  }

  /// Pre-resolves every cell's replay record and the control cone's slots,
  /// rings and sources (control-static graphs only).
  void prepareTape() {
    const exec::ExecutableGraph& eg = e_.eg;
    VALPIPE_CHECK_MSG(eg.size() < (std::size_t{1} << (32 - kTapeShift)),
                      "graph too large for the firing tape");
    const std::vector<bool> cone = sched::controlCone(eg);
    rc_.resize(eg.size());
    const auto valueAt = [&](std::uint32_t slot) -> const Value* {
      const exec::Operand& o = eg.operandAt(slot);
      return o.isLiteral() ? &o.literal : &e_.slots[slot].v;
    };
    for (std::uint32_t c = 0; c < eg.size(); ++c) {
      const exec::Cell& cl = eg.cell(c);
      ReplayCell& r = rc_[c];
      r.op = cl.op;
      const bool identity = cl.op == dfg::Op::Id || cl.op == dfg::Op::Fifo;
      r.kind = Engine::isComposite(cl)      ? Kind::Ring
               : dfg::isSource(cl.op)       ? Kind::Source
               : identity                   ? Kind::Copy
               : cl.op == dfg::Op::Merge    ? Kind::Merge
               : cl.op == dfg::Op::Output   ? Kind::Output
               : dfg::producesResult(cl.op) ? Kind::Pure
                                            : Kind::Sink;
      for (int p = 0; p < cl.numPorts && p < 3; ++p)
        r.in[static_cast<std::size_t>(p)] = valueAt(eg.slotOf(cl, p));
      if (cl.hasGate) {
        r.gate = valueAt(eg.slotOf(cl, exec::kGatePort));
        r.onT = eg.taggedDests(cl, true);
        r.onF = eg.taggedDests(cl, false);
      }
      r.always = eg.alwaysDests(cl);
      if (cone[c] && dfg::isSource(cl.op)) ctlSources_.push_back(c);
      if (cone[c] && r.kind == Kind::Ring) ctlRings_.push_back(c);
      // A slot can steer control when it is a control port itself or an
      // operand of a cell whose result reaches one.
      const int ports = cl.numPorts + (cl.hasGate ? 1 : 0);
      for (int p = 0; p < ports; ++p) {
        const int port = p == cl.numPorts ? exec::kGatePort : p;
        const std::uint32_t s = eg.slotOf(cl, port);
        const bool control = port == exec::kGatePort ||
                             (port == 0 && cl.op == dfg::Op::Merge);
        if (!eg.operandAt(s).isLiteral() && (cone[c] || control))
          ctlSlots_.push_back(s);
      }
    }
  }

  /// Largest window count <= nWin over which every control-cone source
  /// repeats the base window's tokens (token k equals token k - dE).
  std::int64_t patternWindows(std::int64_t nWin) const {
    for (std::uint32_t c : ctlSources_) {
      const std::int64_t dE = cur_.emitted[c] - base_.emitted[c];
      if (dE <= 0) continue;
      const exec::Cell& cl = e_.eg.cell(c);
      const std::int64_t e1 = cur_.emitted[c];
      const std::int64_t end = e1 + nWin * dE;
      std::int64_t k = e1;
      while (k < end &&
             e_.sourceValue(c, cl, k) == e_.sourceValue(c, cl, k - dE))
        ++k;
      nWin = std::min(nWin, (k - e1) / dE);
    }
    return nWin;
  }

  void put(exec::DestSpan ds, const Value& v) {
    for (const exec::Dest& d : ds) e_.slots[d.slot].v = v;
  }

  /// Replays the recorded window `nWin` times on values alone — the same
  /// reads, ops:: calls and writes Engine::fire makes, in the same order.
  /// Advances composite ring cursors; counters and timestamps are the
  /// caller's.
  void replay(std::int64_t nWin) {
    const std::size_t n = e_.eg.size();
    std::vector<std::int64_t> next(n);
    for (std::uint32_t c : sources_) next[c] = e_.cellDyn[c].emitted;
    // Streams of the Output cells on the tape (they have fired, so exist).
    std::vector<std::vector<Value>*> out(n, nullptr);
    for (const std::uint32_t entry : tape_) {
      const std::uint32_t c = entry >> kTapeShift;
      if (rc_[c].kind == Kind::Output)
        out[c] = &e_.outputs.at(e_.eg.streamName(e_.eg.cell(c)));
    }
    for (std::int64_t w = 0; w < nWin; ++w) {
      for (const std::uint32_t entry : tape_) {
        const std::uint32_t c = entry >> kTapeShift;
        const ReplayCell& r = rc_[c];
        std::optional<bool> g;
        switch (r.kind) {
          case Kind::Source:
            put(r.always, e_.sourceValue(c, e_.eg.cell(c), next[c]++));
            continue;
          case Kind::Ring: {
            exec::FifoState& f = e_.fifoDyn[c];
            const auto ring = static_cast<std::uint32_t>(f.ring());
            if (entry & kTapeEmit) {
              put(r.always, f.vals[f.head]);
              f.head = (f.head + 1) % ring;
              --f.count;
            }
            if (entry & kTapeAccept) {
              f.vals[(f.head + f.count) % ring] = *r.in[0];
              ++f.count;
            }
            continue;
          }
          default: break;
        }
        if (r.gate) g = r.gate->asBoolean();
        switch (r.kind) {
          case Kind::Copy:  // exec::applyPure's Id/Fifo case: in(0) itself
            put(r.always, *r.in[0]);
            if (g) put(*g ? r.onT : r.onF, *r.in[0]);
            break;
          case Kind::Pure: {
            const Value v = exec::applyPure(
                r.op, [&r](int p) -> const Value& {
                  return *r.in[static_cast<std::size_t>(p)];
                });
            put(r.always, v);
            if (g) put(*g ? r.onT : r.onF, v);
            break;
          }
          case Kind::Merge: {
            const Value v = *r.in[r.in[0]->asBoolean() ? 1 : 2];
            put(r.always, v);
            if (g) put(*g ? r.onT : r.onF, v);
            break;
          }
          case Kind::Output: out[c]->push_back(*r.in[0]); break;
          default: break;
        }
      }
    }
  }

  void tryJump() {
    const std::int64_t delta = cur_.t - base_.t;  // measured period
    const std::size_t n = e_.eg.size();

    // A composite that moved tokens in the window must have wrapped its
    // ring: a jump shifts ring contents by whole windows, so every emitAt
    // entry must hold a real emit time.  Retry from a later base.
    for (std::size_t ci = 0; ci < composites_.size(); ++ci) {
      const std::int64_t ring = e_.fifoDyn[composites_[ci]].ring();
      const bool moved = cur_.fifoAccepted[ci] != base_.fifoAccepted[ci] ||
                         cur_.fifoEmitted[ci] != base_.fifoEmitted[ci];
      if (moved &&
          (base_.fifoAccepted[ci] < ring || base_.fifoEmitted[ci] < ring)) {
        restartFromCur();
        return;
      }
    }

    // Per-window firing deltas.
    std::vector<std::int64_t> dF(n);
    for (std::uint32_t c = 0; c < n; ++c)
      dF[c] = static_cast<std::int64_t>(cur_.firings[c] - base_.firings[c]);
    const auto dTotal =
        static_cast<std::int64_t>(cur_.totalFirings - base_.totalFirings);

    // How many windows may be skipped.  Leave a generous margin before the
    // cycle cap (the drain plus detection re-arm must fit), and keep every
    // source and every expected-output count at least two windows away from
    // its limit, so the replayed windows are genuinely interior steady state.
    std::int64_t nWin = std::numeric_limits<std::int64_t>::max() / 4;
    {
      const std::int64_t room = e_.capCycles() - cur_.t - e_.wakeHorizon() -
                                e_.settleWindow() - 4 * delta;
      nWin = std::min(nWin, room > 0 ? room / delta : 0);
    }
    for (std::uint32_t c : sources_) {
      const std::int64_t dE = cur_.emitted[c] - base_.emitted[c];
      if (dE <= 0) continue;
      const std::int64_t left =
          e_.sourceLimit(c, e_.eg.cell(c)) - cur_.emitted[c];
      nWin = std::min(nWin, left / dE - 2);
    }
    for (std::size_t i = 0; i < e_.stop.size(); ++i) {
      const std::int64_t dH = e_.stop.have(i) - base_.stopHave[i];
      if (e_.stop.want(i) <= 0 || dH <= 0) continue;
      nWin = std::min(nWin, (e_.stop.want(i) - e_.stop.have(i)) / dH - 2);
    }
    // Stay inside every control pattern's current run.
    bool atPatternTurn = false;
    if (tapeMode_ && nWin >= 2) {
      const std::int64_t inPattern = patternWindows(nWin);
      atPatternTurn = inPattern < nWin;
      nWin = inPattern;
    }
    if (nWin < 2) {
      if (!atPatternTurn) {
        giveUp("steady state reached with fewer than two periods remaining");
      } else if (++turns_ >= kMaxAttempts) {
        giveUp("control sequence turns too often to skip a period");
      } else {
        rearm();  // past the turn, the pattern's next run may recur again
      }
      return;
    }
    turns_ = 0;
    const std::int64_t K = nWin * delta;

    // --- values the skipped windows produce --------------------------------
    // Tape: replayed in place (slots, rings, output values) before any
    // counter or timestamp moves.  IR: computed into the loop's blocks and
    // copied out below.
    std::optional<sched::SteadyLoop> loop;
    std::vector<std::uint32_t> ringHead(composites_.size());
    for (std::size_t ci = 0; ci < composites_.size(); ++ci)
      ringHead[ci] = e_.fifoDyn[composites_[ci]].head;
    if (tapeMode_) {
      replay(nWin);  // advances each ring's head by its skipped emits
    } else {
      loop.emplace(e_.eg, ss_);
      for (std::uint32_t c : sources_)
        if (e_.eg.cell(c).op == dfg::Op::Input)
          loop->bindSource(c, e_.sourceData[c]);
      for (std::uint32_t c = 0; c < n; ++c) {
        if (dF[c] <= 0) continue;
        const exec::Cell& cl = e_.eg.cell(c);
        const auto f1 = static_cast<std::int64_t>(cur_.firings[c]);
        // Every skipped firing that evaluates anything is evaluated here, so
        // a ValueError the real run would hit in the window is hit here too.
        if (dfg::producesResult(cl.op) || dfg::isSource(cl.op))
          loop->request(c, f1, f1 + nWin * dF[c]);
        if (cl.op == dfg::Op::Output && !e_.eg.operand(cl, 0).isLiteral())
          loop->request(e_.eg.operand(cl, 0).producer, f1, f1 + nWin * dF[c]);
      }
      for (std::size_t ci = 0; ci < composites_.size(); ++ci) {
        // Post-jump ring contents: the composite's tokens [emitted',
        // accepted') (the fused chain is the identity on token indices, so
        // the loop's value for the Fifo cell itself is the queued token).
        const std::uint32_t c = composites_[ci];
        const exec::FifoState& f = e_.fifoDyn[c];
        const std::int64_t dE = cur_.fifoEmitted[ci] - base_.fifoEmitted[ci];
        const std::int64_t first = f.emitted + nWin * dE;
        loop->request(c, first, first + static_cast<std::int64_t>(f.count));
      }
      loop->compute();
    }

    // --- apply the jump ---------------------------------------------------
    const std::int64_t tNew = cur_.t + K;

    for (std::uint32_t c = 0; c < n; ++c)
      e_.firings[c] += static_cast<std::uint64_t>(nWin * dF[c]);
    e_.totalFirings += static_cast<std::uint64_t>(nWin * dTotal);
    for (std::size_t i = 0; i < 4; ++i)
      e_.packets.opPacketsByClass[i] +=
          static_cast<std::uint64_t>(nWin) *
          (cur_.packets.opPacketsByClass[i] - base_.packets.opPacketsByClass[i]);
    e_.packets.resultPackets +=
        static_cast<std::uint64_t>(nWin) *
        (cur_.packets.resultPackets - base_.packets.resultPackets);
    e_.packets.ackPackets +=
        static_cast<std::uint64_t>(nWin) *
        (cur_.packets.ackPackets - base_.packets.ackPackets);
    e_.packets.networkResultPackets +=
        static_cast<std::uint64_t>(nWin) * (cur_.packets.networkResultPackets -
                                            base_.packets.networkResultPackets);
    {
      std::array<std::uint64_t, 4> dBusy{};
      for (std::size_t i = 0; i < 4; ++i)
        dBusy[i] =
            static_cast<std::uint64_t>(nWin) * (cur_.fuBusy[i] - base_.fuBusy[i]);
      e_.fu.addBusy(dBusy);
    }

    for (std::uint32_t c = 0; c < n; ++c) {
      e_.cellDyn[c].emitted += nWin * (cur_.emitted[c] - base_.emitted[c]);
      e_.cellDyn[c].busyUntil += K;
    }
    for (std::uint32_t s = 0;
         s < static_cast<std::uint32_t>(e_.eg.slotCount()); ++s) {
      // Uniform shift: live timestamps land exactly where the replayed run
      // puts them; dead ones (<= t1) stay in the dead past (<= t1 + K).
      e_.slots[s].readyAt += K;
      e_.slots[s].freedAt += K;
      if (tapeMode_ || !e_.slots[s].full) continue;
      const exec::Operand& o = e_.eg.operandAt(s);
      if (o.producer == exec::kNoProducer || dF[o.producer] <= 0) continue;
      // Capacity-1 in-order delivery: the occupant is always the producer's
      // latest token.
      e_.slots[s].v = loop->value(
          o.producer, static_cast<std::int64_t>(e_.firings[o.producer]) - 1);
    }

    for (std::size_t ci = 0; ci < composites_.size(); ++ci) {
      const std::uint32_t c = composites_[ci];
      exec::FifoState& f = e_.fifoDyn[c];
      const auto ring = static_cast<std::uint32_t>(f.ring());
      const std::int64_t dA = cur_.fifoAccepted[ci] - base_.fifoAccepted[ci];
      const std::int64_t dE = cur_.fifoEmitted[ci] - base_.fifoEmitted[ci];
      VALPIPE_CHECK_MSG(dA == dE,
                        "steady window changed composite FIFO occupancy");
      // Every position advances by the skipped emits: timestamps rotate with
      // it; values either rotate too (IR) or already sit where the replay
      // wrote them (tape).
      const auto rot = static_cast<std::uint32_t>((nWin * dE) % f.ring());
      std::vector<std::int64_t> readyAt(ring), emitAt(ring);
      std::vector<Value> vals;
      if (!tapeMode_) vals.resize(ring);
      for (std::uint32_t i = 0; i < ring; ++i) {
        const std::uint32_t j = (i + rot) % ring;
        if (!tapeMode_) vals[j] = f.vals[i];
        readyAt[j] = f.readyAt[i] + K;
        emitAt[j] = f.emitAt[i] + K;
      }
      f.readyAt.swap(readyAt);
      f.emitAt.swap(emitAt);
      f.accepted += nWin * dA;
      f.emitted += nWin * dE;
      f.lastAccept += K;
      f.lastEmit += K;
      if (tapeMode_) {
        VALPIPE_CHECK_MSG(f.head == (ringHead[ci] + rot) % ring,
                          "replayed ring cursor disagrees with the jump");
        continue;
      }
      f.vals.swap(vals);
      f.head = (ringHead[ci] + rot) % ring;
      for (std::uint32_t i = 0; i < f.count; ++i)
        f.vals[(f.head + i) % ring] = loop->value(c, f.emitted + i);
    }

    for (std::uint32_t o : outputCells_) {
      if (dF[o] <= 0) continue;
      const exec::Cell& cl = e_.eg.cell(o);
      const std::string& name = e_.eg.streamName(cl);
      std::vector<std::int64_t>& times = e_.outputTimes[name];
      // This stream has exactly one Output cell (shared streams decline the
      // fast path), so indices [f_t0, f_t1) are the base window's arrivals.
      const std::vector<std::int64_t> winTimes(
          times.begin() + static_cast<std::ptrdiff_t>(base_.firings[o]),
          times.begin() + static_cast<std::ptrdiff_t>(cur_.firings[o]));
      const std::int64_t total = nWin * dF[o];
      times.reserve(times.size() + static_cast<std::size_t>(total));
      for (std::int64_t w = 1; w <= nWin; ++w)
        for (std::int64_t m = 0; m < dF[o]; ++m)
          times.push_back(winTimes[static_cast<std::size_t>(m)] + w * delta);
      e_.stop.advance(e_.stopSlotOf[o], total);
      if (tapeMode_) continue;  // the replay appended the values
      std::vector<Value>& vals = e_.outputs[name];
      const exec::Operand& in0 = e_.eg.operand(cl, 0);
      const std::int64_t first = static_cast<std::int64_t>(cur_.firings[o]);
      vals.reserve(vals.size() + static_cast<std::size_t>(total));
      // The appended tokens are contiguous in the producer's index space;
      // read the vectorized block directly when the loop took the fast path.
      const double* blk =
          in0.isLiteral() ? nullptr : loop->realBlock(in0.producer, first);
      for (std::int64_t k = 0; k < total; ++k) {
        if (in0.isLiteral()) vals.push_back(in0.literal);
        else if (blk) vals.emplace_back(blk[k]);
        else vals.push_back(loop->value(in0.producer, first + k));
      }
    }

    if (e_.gst) {
      guard::State& g = *e_.gst;
      for (std::size_t s = 0; s < g.sent.size(); ++s) {
        g.sent[s] += nWin * (cur_.gSent[s] - base_.gSent[s]);
        g.acked[s] += nWin * (cur_.gAcked[s] - base_.gAcked[s]);
        g.delivered[s] += nWin * (cur_.gDelivered[s] - base_.gDelivered[s]);
        g.consumed[s] += nWin * (cur_.gConsumed[s] - base_.gConsumed[s]);
      }
    }

    // Rebuild the wheel from the mirror at the shifted times.  Every pending
    // wake targets (t1, t1 + horizon], so every rebuilt one targets
    // (tNew, tNew + horizon] — nothing lands at tNew itself (a wake at the
    // current time would examine cells one step early) and nothing aliases.
    e_.queue->clear();
    std::set<std::pair<std::int64_t, std::uint32_t>> shifted;
    for (const auto& [at, cell] : pending_) {
      e_.queue->wake(cell, at + K);
      shifted.insert({at + K, cell});
    }
    pending_.swap(shifted);

    e_.lastFire_ += K;  // exact: the window contained a firing, so the
                        // replayed trajectory's last firing shifts by K
    e_.now = tNew;
    if (e_.gst) {
      e_.grd.onCompiledCheckpoint(e_.now);
      for (std::uint32_t c : composites_) {
        const exec::FifoState& f = e_.fifoDyn[c];
        e_.grd.onFifoFire(c, e_.eg.slotOf(e_.eg.cell(c), 0), f.accepted,
                          f.emitted, f.depth, e_.now);
      }
    }

    auto& info = e_.result.compiled;
    info.fastForwarded = true;
    info.detectedPeriod = delta;
    info.windowsSkipped += nWin;
    info.cyclesSkipped += K;
    info.firingsSkipped += static_cast<std::uint64_t>(nWin * dTotal);
    info.vectorized = info.vectorized || (loop && loop->vectorized());
    info.tapeReplay = info.tapeReplay || tapeMode_;

    // Re-arm: the remaining run may admit another jump (the next stretch of
    // a control pattern, or a small tail), and the detector is cheap once
    // the state is already periodic.
    rearm();
    attempts_ = 0;
  }

  Engine& e_;
  const sched::SteadySchedule& ss_;
  const bool tapeMode_;  ///< control-static graph: values by tape replay
  std::vector<std::uint32_t> composites_;
  std::vector<std::uint32_t> sources_;
  std::vector<std::uint32_t> outputCells_;
  // Tape mode only.
  std::vector<ReplayCell> rc_;            ///< per cell
  std::vector<std::uint32_t> ctlSlots_;   ///< operand slots in the control cone
  std::vector<std::uint32_t> ctlRings_;   ///< composites in the control cone
  std::vector<std::uint32_t> ctlSources_; ///< sources in the control cone
  std::vector<std::uint32_t> tape_;       ///< firings since the base snapshot
  /// Mirror of the wheel's future content: (wake time, cell), deduplicated —
  /// exactly the granularity at which the wheel's content is observable
  /// (push-side and pop-side dedupe make duplicates invisible).
  std::set<std::pair<std::int64_t, std::uint32_t>> pending_;
  std::int64_t horizon_ = 0;
  std::int64_t arm_ = 0;
  std::int64_t maxSpan_ = 0;
  std::int64_t span_ = kMinSpan;  ///< current search window (<= maxSpan_)
  int attempts_ = 0;
  int turns_ = 0;  ///< consecutive recurrences stopped at a pattern turn
  bool haveBase_ = false;
  bool done_ = false;
  Snap base_, cur_;
};

}  // namespace

void runCompiled(Engine& e) {
  auto& info = e.result.compiled;
  info.requested = true;
  const sched::SteadySchedule ss = sched::computeSteadySchedule(e.eg);
  const std::string declined =
      ss.accepted ? std::string()
                  : "declined (" + std::string(sched::declineName(ss.decline)) +
                        "): " + ss.detail;
  if (!ss.accepted && !ss.controlStatic) {
    if (e.opts.compiledFallback == core::CompiledFallback::Error)
      throw sched::ScheduleDeclined(ss.decline,
                                    "compiled scheduler " + declined);
    info.reason = declined + "; falling back to event-driven";
    e.runEventDriven();
    return;
  }
  info.accepted = ss.accepted;
  if (ss.accepted) info.hyperPeriod = ss.hyperPeriod;
  else info.reason = declined + "; control is input-independent, so "
                     "periodic stretches are fast-forwarded by firing-tape "
                     "replay";

  // Run-shape conditions a bulk jump cannot advance or must not skip; the
  // event loop still runs (under the Compiled label) so results stay right.
  std::string noJump;
  if (e.opts.faults)
    noJump = "fault injection active";
  else if (e.opts.placement)
    noJump = "placement routing active";
  else if (e.opts.trace || e.opts.metrics)
    noJump = "observability sinks active";
  if (noJump.empty())
    for (std::uint32_t c = 0; c < e.eg.size(); ++c)
      if (e.cfg.fuUnits[static_cast<std::size_t>(e.eg.cell(c).fu)] != 0) {
        noJump = "finite function-unit pool";
        break;
      }
  if (noJump.empty()) {
    std::set<std::string> seen;
    for (std::uint32_t c = 0; c < e.eg.size(); ++c) {
      const exec::Cell& cl = e.eg.cell(c);
      if (cl.op != dfg::Op::Output) continue;
      if (!seen.insert(e.eg.streamName(cl)).second) {
        noJump = "multiple Output cells share a stream";
        break;
      }
    }
  }
  if (!noJump.empty()) {
    info.reason = noJump + ": steady-state fast-forward disabled";
    e.runEventDriven();
    return;
  }

  CompiledDriver drv(e, ss);
  std::vector<std::pair<std::uint32_t, std::int64_t>> buf;
  drv.wakeBuf = &buf;
  e.wakeLog = &buf;
  e.runEventLoop([&drv](const std::vector<std::uint32_t>& toFire) {
    drv.afterStep(toFire);
  });
  e.wakeLog = nullptr;
  if (!ss.accepted && !info.fastForwarded)
    info.reason += "; none was long enough to skip";
}

}  // namespace valpipe::machine::detail
