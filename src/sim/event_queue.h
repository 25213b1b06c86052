// Discrete-event simulation engine.
//
// A Simulator owns virtual time and two queues of (time, sequence) ordered
// occurrences: a heap of one-shot events (ScheduleAt returns a cancellable
// EventId) and a lane of re-armable timers (AddTimer registers one callback,
// ArmTimer/DisarmTimer move its single pending fire). Both draw `seq` from one
// counter and the run loops always fire the earlier root by (when, seq), so
// ties are broken by schedule order across both queues and runs are fully
// deterministic.
//
// Hot-path design (docs/PERFORMANCE.md has the full story and the numbers):
//
//  * Slab allocator. One-shot callbacks live in a slab of Nodes indexed by a
//    32-bit slot, recycled through a LIFO free list — steady-state scheduling
//    performs no heap allocation at all.
//  * Flat binary heap. Pending one-shots are 24-byte {when, seq, slot, gen}
//    entries in a contiguous min-heap ordered by (when, seq) — no per-node
//    allocation, no pointer chasing, and `seq` is the monotonically increasing
//    schedule order that implements the tie-break.
//  * O(1) tombstone Cancel. An EventId packs {generation:32, slot:32}. Each slot
//    carries a generation counter that is bumped whenever the slot is released
//    (fire or cancel), so Cancel is a bounds check plus a generation compare: a
//    match releases the slot immediately; a mismatch means the event already fired
//    (or the slot was recycled) and the call is a no-op.
//  * Lazy deletion + compaction. A cancelled event's heap entry stays behind as a
//    tombstone (its generation no longer matches the slot's) and is skipped when it
//    surfaces at the root. When tombstones outnumber live entries the heap is
//    compacted in one O(n) filter-and-heapify pass, so cancel-heavy workloads can't
//    bloat it.
//  * Timer lane. A callback that is re-armed over and over (each running vCPU's
//    advance event moves on every settle) is registered once as a timer. Armed
//    timers sit in one small array beside the slab heap, sorted latest-first by
//    (when, seq): firing is a pop from the back and arming one insertion-sort
//    step, so the re-arm traffic leaves no tombstones and never touches the
//    slab or the one-shot heap.
//
// Cancel semantics, pinned by SimulatorTest.CancelSlotReuseIsSafe and
// SimulatorTest.CancelAfterFireAndUnknownIdsAreNoOps: Cancel(kInvalidEvent),
// Cancel of an already-fired id, double Cancel, and Cancel of an id this
// Simulator never issued are all deterministic O(1) no-ops. In particular, the
// generation check guarantees that a stale id can never cancel a *different*
// live event that happens to reuse the same slab slot.
//
// Timer semantics, pinned by the SimulatorTimerTest cases and checked against
// a reference model by SimulatorPropertyTest.TimerLaneMatchesReferenceModel: a
// timer fires at most once per ArmTimer and is disarmed when its callback
// starts (TimerArmed is false inside it until the callback re-arms). ArmTimer
// draws exactly one `seq` per call, even when the deadline is unchanged, and
// DisarmTimer draws none, so arming orders exactly like Cancel + ScheduleAt of
// a one-shot. events_processed() counts timer fires and pending_events()
// counts armed timers, so both read as if every arm were a one-shot event.
//
// Determinism: the firing order is a pure function of the (when, seq) keys — the
// heap is never iterated, only its root consumed, and the lane is searched only
// by timer id — and all bookkeeping is index-based, so no container iteration
// order or allocator address can leak into a run (tools/vslint polices hashed
// containers and wall clocks tree-wide).
//
// Observers: a Simulator carries its run's Observers value (src/base/observers.h),
// the borrowed sinks every hook of the run checks; the engine itself records one
// `event_fire` trace event per fire when a tracer is attached.

#ifndef VSCALE_SRC_SIM_EVENT_QUEUE_H_
#define VSCALE_SRC_SIM_EVENT_QUEUE_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/check.h"
#include "src/base/observers.h"
#include "src/base/time.h"
#include "src/base/trace.h"
#include "src/sim/event_fn.h"

namespace vscale {

class Simulator {
 public:
  using EventId = uint64_t;
  static constexpr EventId kInvalidEvent = 0;
  // Below this heap size compaction is pointless: skimming a handful of
  // tombstones off the root is cheaper than a rebuild.
  static constexpr size_t kCompactMinHeapSize = 64;

  explicit Simulator(Observers observers = {});
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs Now() const { return now_; }
  // Where this run's observations go; fixed for the Simulator's lifetime.
  const Observers& observers() const { return observers_; }

  // Schedules fn at absolute virtual time `when` (>= Now()). Returns a
  // cancellable id. Templated so the callable is constructed directly inside a
  // recycled slab slot — the hot path materializes no EventFn temporaries.
  template <typename F>
  EventId ScheduleAt(TimeNs when, F&& fn);
  template <typename F>
  EventId ScheduleAfter(TimeNs delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Cancels a pending event in O(1). Safe to call with kInvalidEvent, an
  // already-fired or already-cancelled id, or an id this Simulator never issued:
  // all are deterministic no-ops (see the header comment for the pinned contract).
  void Cancel(EventId id);

  // --- timer lane (see the header comment for the pinned contract) ---
  using TimerId = uint32_t;

  // Registers `fn` as a timer, disarmed. The callback is fixed for the
  // Simulator's lifetime. Must not be called from inside a timer callback: the
  // lane invokes callbacks in place, so their storage must not grow under them.
  template <typename F>
  TimerId AddTimer(F&& fn);
  // (Re-)arms the timer to fire at `when` (>= Now()), replacing any pending
  // fire. Draws one `seq`, as one ScheduleAt would.
  void ArmTimer(TimerId t, TimeNs when);
  // Removes a pending fire; a no-op on a disarmed timer. Draws no `seq`.
  void DisarmTimer(TimerId t);
  bool TimerArmed(TimerId t) const { return timer_armed_[t] != 0; }

  // Runs a single event; returns false if the queue is empty.
  bool Step();

  // Runs all events with time <= deadline, then advances Now() to deadline.
  void RunUntil(TimeNs deadline);

  // Runs until the queue empties or `max_events` more events have fired.
  void RunUntilIdle(uint64_t max_events = UINT64_MAX);

  // Runs until `stop` returns true (checked after each event), the queue empties, or
  // the deadline passes. Returns true if `stop` triggered.
  bool RunUntilCondition(const std::function<bool()>& stop, TimeNs deadline);

  // Both count timer arms and fires as events.
  size_t pending_events() const { return live_ + lane_.size(); }
  uint64_t events_processed() const { return events_processed_; }

 private:
  // A pending occurrence in the flat min-heap. `seq` is the schedule order (the
  // tie-break); `slot`/`gen` locate and validate the callback in the slab.
  struct HeapEntry {
    TimeNs when;
    uint64_t seq;
    uint32_t slot;
    uint32_t gen;
  };

  // Slab node: callback storage plus the generation that outstanding EventIds and
  // heap entries are validated against. `gen` starts at 1 and is bumped on every
  // release, so a packed id is never kInvalidEvent and never matches twice.
  struct Node {
    EventFn fn;
    uint32_t gen = 1;
  };

  // The slab is chunked (not one contiguous vector) so Node addresses are stable
  // across growth. That lets FireTop invoke a callback *in place* — no defensive
  // move-out — because a callback that schedules new events can never relocate
  // the closure it is currently executing.
  static constexpr uint32_t kSlabChunkShift = 8;  // 256 nodes per chunk
  static constexpr uint32_t kSlabChunkSize = 1u << kSlabChunkShift;

  Node& NodeAt(uint32_t slot) {
    return chunks_[slot >> kSlabChunkShift][slot & (kSlabChunkSize - 1)];
  }
  const Node& NodeAt(uint32_t slot) const {
    return chunks_[slot >> kSlabChunkShift][slot & (kSlabChunkSize - 1)];
  }

  static EventId Pack(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  // An armed timer in the lane. `timer` is the lane's own index, not an owned
  // handle (vslint timer-owner).
  struct LaneEntry {
    TimeNs when;
    uint64_t seq;
    uint32_t timer;
  };

  // Firing order, within and across the two queues: earliest (when, seq) first.
  template <typename A, typename B>
  static bool Earlier(const A& a, const B& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  bool Stale(const HeapEntry& e) const { return NodeAt(e.slot).gen != e.gen; }

  // The schedule/cancel/arm/fire path is defined inline below the class: these
  // run tens of millions of times per simulated second, and letting them inline
  // into callers (RearmAdvance re-arms on every settle) is worth several ns per
  // event — see docs/PERFORMANCE.md for the measured effect.
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void PopRoot();      // removes heap_[0], restores heap order
  void SkimStale();    // pops tombstones off the root until it is live or empty
  void FireTop();      // fires heap_[0] (must be live): advance clock, run callback
  void CompactHeap();  // one O(n) filter-and-heapify pass dropping all tombstones
  size_t LaneIndex(TimerId t) const;  // where armed timer t sits in lane_
  void CheckLane() const;  // checked builds: lane_ sorted, armed bytes match
  void FireLaneBack();     // fires lane_.back(): disarm, advance clock, run callback
  // Bookkeeping shared by both fire paths, run once the occurrence has left
  // its queue: order checks, clock, counter, trace.
  void NoteFire(TimeNs when, uint64_t seq);
  // Fires the earlier root of the two heaps if it is due by `deadline`;
  // returns false when nothing is.
  bool FireNext(TimeNs deadline);

  const Observers observers_;
  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  std::vector<HeapEntry> heap_;
  std::vector<std::unique_ptr<Node[]>> chunks_;  // the slab; chunk arrays never move
  uint32_t n_nodes_ = 0;        // slots handed out so far (all chunks, all states)
  std::vector<uint32_t> free_;  // LIFO free list: the hottest slot is reused first
  size_t live_ = 0;             // scheduled and neither fired nor cancelled
  std::vector<LaneEntry> lane_;       // armed timers, latest (when, seq) first
  std::vector<uint8_t> timer_armed_;  // [timer] -> 1 while it has an entry in lane_
  std::vector<EventFn> timer_fns_;    // [timer] -> callback, invoked in place
  bool in_timer_callback_ = false;    // guards timer_fns_ against growth mid-call
  uint64_t events_processed_ = 0;
  // Checked builds verify the (when, seq) firing order is strictly increasing — the
  // stable tie-break every replay relies on. Dead weight otherwise.
  TimeNs last_fired_when_ = 0;
  uint64_t last_fired_seq_ = 0;
};

// --- inline hot path -------------------------------------------------------

template <typename F>
inline Simulator::EventId Simulator::ScheduleAt(TimeNs when, F&& fn) {
  assert(when >= now_ && "cannot schedule in the past");
  if (when < now_) {
    when = now_;
  }
  uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    if ((n_nodes_ >> kSlabChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<Node[]>(kSlabChunkSize));
    }
    slot = n_nodes_++;
  }
  Node& n = NodeAt(slot);
  // Freed slots always hold an empty EventFn, so this is a pure placement
  // construction: capture bytes + one invoke pointer, nothing else.
  n.fn.Emplace(std::forward<F>(fn));
  const uint32_t gen = n.gen;
  heap_.push_back(HeapEntry{when, next_seq_++, slot, gen});
  SiftUp(heap_.size() - 1);
  ++live_;
  return Pack(slot, gen);
}

inline void Simulator::Cancel(EventId id) {
  if (id == kInvalidEvent) {
    return;
  }
  const uint32_t slot = static_cast<uint32_t>(id);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (slot >= n_nodes_ || NodeAt(slot).gen != gen) {
    return;  // already fired/cancelled (generation bumped) or never issued
  }
  Node& n = NodeAt(slot);
  n.fn.Reset();  // release the callback's resources now, not at pop time
  ++n.gen;       // tombstones the heap entry and invalidates the id
  free_.push_back(slot);
  --live_;
  // The heap entry stays behind as a tombstone, skipped when it surfaces at the
  // root. Rebuild once tombstones dominate so cancel-heavy phases stay O(live).
  if (heap_.size() >= kCompactMinHeapSize && heap_.size() - live_ > live_) {
    CompactHeap();
  }
}

inline void Simulator::SiftUp(size_t i) {
  // Early-out without re-storing the entry: most pushes land in heap order
  // already (timer wheels fire in time order), and the empty-heap schedule —
  // the single hottest case — must not pay a redundant 24-byte copy.
  if (i == 0 || !Earlier(heap_[i], heap_[(i - 1) / 2])) {
    return;
  }
  const HeapEntry e = heap_[i];
  do {
    const size_t parent = (i - 1) / 2;
    heap_[i] = heap_[parent];
    i = parent;
  } while (i > 0 && Earlier(e, heap_[(i - 1) / 2]));
  heap_[i] = e;
}

inline void Simulator::SiftDown(size_t i) {
  const size_t n = heap_.size();
  const HeapEntry e = heap_[i];
  while (true) {
    size_t child = 2 * i + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && Earlier(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!Earlier(heap_[child], e)) {
      break;
    }
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = e;
}

inline void Simulator::PopRoot() {
  const size_t last = heap_.size() - 1;
  if (last > 0) {  // skip the self-copy when popping the only element
    heap_[0] = heap_[last];
  }
  heap_.pop_back();
  if (last > 1) {
    SiftDown(0);
  }
}

inline void Simulator::SkimStale() {
  while (!heap_.empty() && Stale(heap_[0])) {
    PopRoot();
  }
}

inline void Simulator::NoteFire(TimeNs when, [[maybe_unused]] uint64_t seq) {
  // Virtual time is monotonic and the tie-break is stable: events at the same
  // timestamp fire in schedule order. Every replay guarantee rests on these two.
  VS_INVARIANT(when >= now_,
               "event %llu fires at %lld ns but Now() is already %lld ns",
               static_cast<unsigned long long>(seq), static_cast<long long>(when),
               static_cast<long long>(now_));
  VS_INVARIANT(when > last_fired_when_ ||
                   (when == last_fired_when_ && seq > last_fired_seq_),
               "tie-break regression: event %llu at %lld ns fired after event %llu "
               "at %lld ns",
               static_cast<unsigned long long>(seq), static_cast<long long>(when),
               static_cast<unsigned long long>(last_fired_seq_),
               static_cast<long long>(last_fired_when_));
#if VSCALE_CHECKED
  last_fired_when_ = when;
  last_fired_seq_ = seq;
#endif
  now_ = when;
  ++events_processed_;
  VSCALE_TRACE_INSTANT_ARG(observers_, now_, TraceCategory::kSim, "event_fire", -1,
                           -1, -1, "pending", pending_events());
}

inline void Simulator::FireTop() {
  const HeapEntry e = heap_[0];
  PopRoot();
  Node& n = NodeAt(e.slot);
  ++n.gen;  // invalidates the outstanding EventId: Cancel after fire is a no-op
  --live_;
  NoteFire(e.when, e.seq);
  // In-place invocation: the chunked slab guarantees `n` stays put even if the
  // callback grows the slab, and the slot is not on the free list yet, so a
  // callback that schedules can never clobber its own executing closure. The
  // slot is released only after the callback returns.
  n.fn();
  n.fn.Reset();
  free_.push_back(e.slot);
}

// --- timer lane --------------------------------------------------------------

template <typename F>
inline Simulator::TimerId Simulator::AddTimer(F&& fn) {
  VS_REQUIRE(!in_timer_callback_,
             "AddTimer from inside a timer callback would move the running "
             "callback's storage");
  const TimerId t = static_cast<TimerId>(timer_fns_.size());
  timer_fns_.emplace_back(std::forward<F>(fn));
  timer_armed_.push_back(0);
  return t;
}

inline size_t Simulator::LaneIndex(TimerId t) const {
  size_t i = lane_.size() - 1;
  while (lane_[i].timer != t) {
    --i;
  }
  return i;
}

inline void Simulator::CheckLane() const {
#if VSCALE_CHECKED
  for (size_t i = 1; i < lane_.size(); ++i) {
    VS_INVARIANT(Earlier(lane_[i], lane_[i - 1]),
                 "timer lane out of order: timer %u (%lld ns, seq %llu) sits behind "
                 "timer %u (%lld ns, seq %llu)",
                 lane_[i].timer, static_cast<long long>(lane_[i].when),
                 static_cast<unsigned long long>(lane_[i].seq), lane_[i - 1].timer,
                 static_cast<long long>(lane_[i - 1].when),
                 static_cast<unsigned long long>(lane_[i - 1].seq));
  }
  size_t armed = 0;
  for (const uint8_t a : timer_armed_) {
    armed += a;
  }
  VS_INVARIANT(armed == lane_.size(),
               "%zu timers are marked armed but the lane holds %zu", armed,
               lane_.size());
#endif
}

inline void Simulator::ArmTimer(TimerId t, TimeNs when) {
  assert(when >= now_ && "cannot schedule in the past");
  if (when < now_) {
    when = now_;
  }
  // The fresh seq outranks every pending one, so `when` alone places the entry:
  // behind every later deadline, ahead of every equal or earlier one.
  const LaneEntry e{when, next_seq_++, t};
  size_t i;
  if (timer_armed_[t] == 0) {
    timer_armed_[t] = 1;
    i = lane_.size();
    lane_.push_back(e);
  } else {
    // Move the old entry in place. An earlier deadline walks it toward the back;
    // a later-or-equal one toward the front, in the loop below.
    i = LaneIndex(t);
    while (i + 1 < lane_.size() && lane_[i + 1].when > when) {
      lane_[i] = lane_[i + 1];
      ++i;
    }
  }
  // A hand-written shift: with std::vector::insert the lane kept only part of
  // its gain over a heap (docs/PERFORMANCE.md).
  while (i > 0 && lane_[i - 1].when <= when) {
    lane_[i] = lane_[i - 1];
    --i;
  }
  lane_[i] = e;
  CheckLane();
}

inline void Simulator::DisarmTimer(TimerId t) {
  if (timer_armed_[t] == 0) {
    return;
  }
  timer_armed_[t] = 0;
  for (size_t i = LaneIndex(t); i + 1 < lane_.size(); ++i) {
    lane_[i] = lane_[i + 1];
  }
  lane_.pop_back();
  CheckLane();
}

inline void Simulator::FireLaneBack() {
  const LaneEntry e = lane_.back();
  lane_.pop_back();
  timer_armed_[e.timer] = 0;  // disarmed before the callback: it may re-arm itself
  CheckLane();
  NoteFire(e.when, e.seq);
  in_timer_callback_ = true;
  timer_fns_[e.timer]();
  in_timer_callback_ = false;
}

inline bool Simulator::FireNext(TimeNs deadline) {
  SkimStale();
  if (!lane_.empty() && (heap_.empty() || Earlier(lane_.back(), heap_[0]))) {
    if (lane_.back().when > deadline) {
      return false;
    }
    FireLaneBack();
    return true;
  }
  if (heap_.empty() || heap_[0].when > deadline) {
    return false;
  }
  FireTop();
  return true;
}

inline bool Simulator::Step() { return FireNext(kTimeNever); }

// Re-schedules itself at a fixed period until stopped. The callback observes Now().
class PeriodicTask {
 public:
  PeriodicTask(Simulator& sim, TimeNs period, std::function<void()> fn);
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  // First fire happens at Now() + phase (default: one full period from now).
  void Start(TimeNs phase = -1);
  void Stop();
  bool running() const { return running_; }
  TimeNs period() const { return period_; }

 private:
  void Fire();

  Simulator& sim_;
  TimeNs period_;
  std::function<void()> fn_;
  Simulator::EventId pending_ = Simulator::kInvalidEvent;
  bool running_ = false;
};

}  // namespace vscale

#endif  // VSCALE_SRC_SIM_EVENT_QUEUE_H_
