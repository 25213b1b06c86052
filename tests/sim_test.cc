// Unit and property tests for the discrete-event engine.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/sim/event_queue.h"

namespace vscale {
namespace {

TEST(SimulatorTest, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(Microseconds(30), [&] { order.push_back(3); });
  sim.ScheduleAt(Microseconds(10), [&] { order.push_back(1); });
  sim.ScheduleAt(Microseconds(20), [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Microseconds(30));
}

TEST(SimulatorTest, TiesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(Microseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, RunUntilAdvancesClockToDeadline) {
  Simulator sim;
  sim.RunUntil(Milliseconds(5));
  EXPECT_EQ(sim.Now(), Milliseconds(5));
}

TEST(SimulatorTest, RunUntilDoesNotFireLaterEvents) {
  Simulator sim;
  bool fired = false;
  sim.ScheduleAt(Milliseconds(10), [&] { fired = true; });
  sim.RunUntil(Milliseconds(9));
  EXPECT_FALSE(fired);
  sim.RunUntil(Milliseconds(10));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 5) {
      sim.ScheduleAfter(Microseconds(1), next);
    }
  };
  sim.ScheduleAfter(Microseconds(1), next);
  sim.RunUntilIdle();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(sim.Now(), Microseconds(5));
}

TEST(SimulatorTest, RunUntilConditionStopsEarly) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.ScheduleAt(Microseconds(i), [&] { ++count; });
  }
  const bool stopped =
      sim.RunUntilCondition([&] { return count >= 3; }, Seconds(1));
  EXPECT_TRUE(stopped);
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, RunUntilConditionHonorsDeadline) {
  Simulator sim;
  const bool stopped = sim.RunUntilCondition([] { return false; }, Milliseconds(2));
  EXPECT_FALSE(stopped);
  EXPECT_EQ(sim.Now(), Milliseconds(2));
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, EventsProcessedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.ScheduleAfter(i, [] {});
  }
  sim.RunUntilIdle();
  EXPECT_EQ(sim.events_processed(), 7u);
}

// Regression for the deterministic tie-break (both queues order by (when, seq)
// with seq drawn at schedule or arm time): heavily interleaved schedule, arm
// and disarm traffic must replay the exact same firing order run after run.
// An engine that hashed, or that let a re-arm or a disarm reorder equal-time
// entries, would still fire the right set while silently reordering ties
// between runs.
TEST(SimulatorPropertyTest, InterleavedScheduleAndDisarmReplaysIdentically) {
  auto run = [](uint64_t seed) {
    Simulator sim;
    Rng rng(seed);
    std::vector<std::pair<TimeNs, int>> fired;
    std::vector<Simulator::Timer> timers;
    for (int t = 0; t < 16; ++t) {
      const int tag = -1 - t;
      timers.push_back(
          sim.AddTimer([&fired, &sim, tag] { fired.emplace_back(sim.Now(), tag); }));
    }
    // Coarse buckets force many exact time ties, the tie-break's hard case.
    auto bucket = [&rng] {
      return Microseconds(1 + static_cast<TimeNs>(rng.NextBelow(20)));
    };
    for (int i = 0; i < 300; ++i) {
      const int tag = i;
      sim.ScheduleAt(bucket(),
                     [&fired, &sim, tag] { fired.emplace_back(sim.Now(), tag); });
      if (rng.Chance(0.4)) {
        Simulator::Timer& t = timers[rng.NextBelow(timers.size())];
        t.Arm(bucket());
      }
      if (rng.Chance(0.1)) {
        timers[rng.NextBelow(timers.size())].Disarm();
      }
    }
    sim.RunUntilIdle();
    return fired;
  };
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const auto first = run(seed);
    const auto second = run(seed);
    ASSERT_EQ(first, second) << "seed " << seed;
    for (size_t i = 1; i < first.size(); ++i) {
      EXPECT_LE(first[i - 1].first, first[i].first) << "seed " << seed;
    }
  }
}

// Records the address it runs at. A trivially copyable callable this small is
// built inline in its slab slot, so the address names the slot.
struct RecordSlot {
  const void** at;
  void operator()() const { *at = this; }
};

// The slab recycles released slots LIFO, so steady-state schedule/fire traffic
// runs in a bounded set of slots instead of growing the arena: the slot a
// callback runs in must repeat once the queue drains, and the slot released
// last must be the first one reused.
TEST(SimulatorTest, SlabSlotsAreReusedAfterRelease) {
  Simulator sim;
  const void* first = nullptr;
  const void* second = nullptr;
  sim.ScheduleAt(Microseconds(1), RecordSlot{&first});
  sim.ScheduleAt(Microseconds(2), RecordSlot{&second});
  sim.RunUntilIdle();
  ASSERT_NE(first, nullptr);
  ASSERT_NE(first, second);
  for (int round = 0; round < 100; ++round) {
    const void* at = nullptr;
    sim.ScheduleAfter(Microseconds(1), RecordSlot{&at});
    sim.RunUntilIdle();
    EXPECT_EQ(at, second) << "round " << round;
  }
}

// Same-tick batching (the RunUntil inner drain) must preserve schedule order
// across both queues among survivors even when disarms punch holes in the
// batch.
TEST(SimulatorTest, SameTickBatchPreservesScheduleOrderAcrossDisarms) {
  Simulator sim;
  std::vector<int> order;
  std::vector<Simulator::Timer> timers;
  for (int i = 0; i < 50; ++i) {
    if (i % 2 == 0) {
      sim.ScheduleAt(Microseconds(7), [&order, i] { order.push_back(i); });
    } else {
      timers.push_back(sim.AddTimer([&order, i] { order.push_back(i); }));
      timers.back().Arm(Microseconds(7));
    }
  }
  for (size_t k = 0; k < timers.size(); k += 3) {
    timers[k].Disarm();  // the timers of i = 1, 7, 13, ...
  }
  sim.RunUntil(Microseconds(7));
  std::vector<int> expected;
  for (int i = 0; i < 50; ++i) {
    if (i % 6 != 1) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.Now(), Microseconds(7));
}

// Property: the engine's firing order must match a trivially-correct reference
// model (stable sort of surviving occurrences by (when, schedule order)) over
// random interleavings of one-shots, timer arms and disarms — the
// old-engine-vs-new-engine equivalence check, with the reference standing in
// for the pre-rewrite container queue.
TEST(SimulatorPropertyTest, FiringOrderMatchesReferenceModel) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    Simulator sim;
    Rng rng(seed);
    struct Ref {
      TimeNs when;
      int tag;
      bool disarmed = false;
    };
    std::vector<Ref> model;
    std::vector<std::pair<Simulator::Timer, size_t>> timers;  // (timer, model row)
    std::vector<int> fired;
    for (int i = 0; i < 400; ++i) {
      // Coarse buckets force ties; the reference resolves them by index order.
      const TimeNs when = Microseconds(1 + static_cast<TimeNs>(rng.NextBelow(25)));
      model.push_back(Ref{when, i});
      if (rng.Chance(0.5)) {
        sim.ScheduleAt(when, [&fired, i] { fired.push_back(i); });
      } else {
        timers.emplace_back(sim.AddTimer([&fired, i] { fired.push_back(i); }),
                            model.size() - 1);
        timers.back().first.Arm(when);
      }
      if (rng.Chance(0.35) && !timers.empty()) {
        auto& [timer, row] = timers[rng.NextBelow(timers.size())];
        timer.Disarm();
        model[row].disarmed = true;
      }
    }
    sim.RunUntilIdle();
    std::vector<int> expected;
    for (TimeNs t = Microseconds(1); t <= Microseconds(25); t += Microseconds(1)) {
      for (const Ref& r : model) {
        if (!r.disarmed && r.when == t) expected.push_back(r.tag);
      }
    }
    ASSERT_EQ(fired, expected) << "seed " << seed;
  }
}

// --- timer lane ------------------------------------------------------------

// The reference model for both queues at once: every ScheduleAt and Arm draws
// one seq, re-arming replaces a timer's single pending fire, Disarm draws
// nothing, and the earliest live (when, seq) fires next. It scans a flat list,
// so its only cleverness is the contract itself. Replace and Relocate are
// what a disarm and a no-op look like here; SimQueue drives handle moves and
// destruction through them.
class RefQueue {
 public:
  std::function<void(int)> on_fire;

  void Schedule(TimeNs when, int tag) {
    items_.push_back(Item{when, next_seq_++, tag, -1, true});
  }
  int AddTimer(int tag) {
    timer_tags_.push_back(tag);
    timer_item_.push_back(kNone);
    return static_cast<int>(timer_tags_.size()) - 1;
  }
  void Arm(int t, TimeNs when) {
    Disarm(t);
    items_.push_back(Item{when, next_seq_++, timer_tags_[static_cast<size_t>(t)], t, true});
    timer_item_[static_cast<size_t>(t)] = items_.size() - 1;
  }
  void Disarm(int t) {
    size_t& item = timer_item_[static_cast<size_t>(t)];
    if (item != kNone) {
      items_[item].live = false;
      item = kNone;
    }
  }
  bool Armed(int t) const { return timer_item_[static_cast<size_t>(t)] != kNone; }
  void Replace(int t) { Disarm(t); }
  void Relocate(int) {}
  bool Step() {
    size_t best = kNone;
    for (size_t i = 0; i < items_.size(); ++i) {
      const Item& it = items_[i];
      if (it.live && (best == kNone || it.when < items_[best].when ||
                      (it.when == items_[best].when && it.seq < items_[best].seq))) {
        best = i;
      }
    }
    if (best == kNone) return false;
    Item& it = items_[best];
    it.live = false;
    if (it.timer >= 0) timer_item_[static_cast<size_t>(it.timer)] = kNone;
    now_ = it.when;
    ++processed_;
    on_fire(it.tag);
    return true;
  }
  TimeNs Now() const { return now_; }
  size_t Pending() const {
    size_t n = 0;
    for (const Item& it : items_) n += it.live ? 1 : 0;
    return n;
  }
  uint64_t Processed() const { return processed_; }

 private:
  static constexpr size_t kNone = SIZE_MAX;
  struct Item {
    TimeNs when;
    uint64_t seq;
    int tag;
    int timer;  // -1 for a one-shot event
    bool live;
  };
  std::vector<Item> items_;
  std::vector<int> timer_tags_;
  std::vector<size_t> timer_item_;
  uint64_t next_seq_ = 1;
  TimeNs now_ = 0;
  uint64_t processed_ = 0;
};

// The Simulator behind RefQueue's interface; every callback reports its tag.
class SimQueue {
 public:
  std::function<void(int)> on_fire;

  void Schedule(TimeNs when, int tag) {
    sim_.ScheduleAt(when, [this, tag] { on_fire(tag); });
  }
  int AddTimer(int tag) {
    tags_.push_back(tag);
    timers_.push_back(sim_.AddTimer([this, tag] { on_fire(tag); }));
    return static_cast<int>(timers_.size()) - 1;
  }
  void Arm(int t, TimeNs when) { timers_[static_cast<size_t>(t)].Arm(when); }
  void Disarm(int t) { timers_[static_cast<size_t>(t)].Disarm(); }
  bool Armed(int t) const { return timers_[static_cast<size_t>(t)].armed(); }
  // Destroys timer t's handle, which must act as a Disarm, and registers a
  // fresh disarmed timer with the same tag in its place.
  void Replace(int t) {
    Simulator::Timer& slot = timers_[static_cast<size_t>(t)];
    { Simulator::Timer doomed = std::move(slot); }
    const int tag = tags_[static_cast<size_t>(t)];
    slot = sim_.AddTimer([this, tag] { on_fire(tag); });
  }
  // Moves timer t's handle out and back: destroying the moved-from handle must
  // disarm nothing.
  void Relocate(int t) {
    Simulator::Timer& slot = timers_[static_cast<size_t>(t)];
    Simulator::Timer held = std::move(slot);
    slot = std::move(held);
  }
  bool Step() { return sim_.Step(); }
  TimeNs Now() const { return sim_.Now(); }
  size_t Pending() const { return sim_.pending_events(); }
  uint64_t Processed() const { return sim_.events_processed(); }

 private:
  Simulator sim_;
  std::vector<Simulator::Timer> timers_;
  std::vector<int> tags_;
};

// One fire as seen from inside its callback: (Now, tag, own timer armed?,
// pending, processed).
using FireRecord = std::tuple<TimeNs, int, bool, size_t, uint64_t>;

// Drives a queue with a seeded mix of ScheduleAt, Arm (fresh, moved and
// unchanged deadlines) and Disarm over `timers` timers, from the top level and
// from inside callbacks — timers re-arm or disarm themselves from their own
// callback — plus, from the top level only (AddTimer may not run inside a
// timer callback), handle destruction and moves through Replace and Relocate.
// Tags below `timers` name timers, the rest events.
// The script starts from a full lane, every timer armed, as when every pCPU
// runs a vCPU. Deadlines fall in 1 us buckets, so lane timers and heap events
// tie on `when` constantly. The Rng is consumed in firing order, so any
// divergence from the reference order also diverges the rest of the script.
template <typename Q>
std::vector<FireRecord> DriveLaneScript(uint64_t seed, int timers) {
  Q q;
  Rng rng(seed);
  std::vector<FireRecord> log;
  std::vector<TimeNs> armed_at(static_cast<size_t>(timers), 0);
  int next_tag = timers;
  auto near = [&] {
    return q.Now() + Microseconds(static_cast<TimeNs>(rng.NextBelow(4)));
  };
  auto arm = [&](int t, TimeNs when) {
    q.Arm(t, when);
    armed_at[static_cast<size_t>(t)] = when;
  };
  auto random_op = [&] {
    const int t = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(timers)));
    switch (rng.NextBelow(4)) {
      case 0:
        q.Schedule(near(), next_tag++);
        break;
      case 1:
        arm(t, near());
        break;
      case 2:  // unchanged deadline: must still draw a fresh seq
        if (q.Armed(t)) arm(t, armed_at[static_cast<size_t>(t)]);
        break;
      default:
        q.Disarm(t);
        break;
    }
  };
  q.on_fire = [&](int tag) {
    const bool own_armed = tag < timers && q.Armed(tag);
    log.emplace_back(q.Now(), tag, own_armed, q.Pending(), q.Processed());
    if (tag < timers) {
      switch (rng.NextBelow(4)) {
        case 0:
          arm(tag, near());  // re-arm from inside its own callback
          break;
        case 1:
          arm(tag, near());
          q.Disarm(tag);  // ... and take it back before returning
          break;
        default:
          break;
      }
    }
    if (rng.Chance(0.3)) random_op();
  };
  for (int t = 0; t < timers; ++t) {
    q.AddTimer(t);
  }
  for (int t = 0; t < timers; ++t) {
    arm(t, near());
  }
  for (int i = 0; i < 400; ++i) {
    random_op();
    if (rng.Chance(0.1)) {
      const int t = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(timers)));
      if (rng.Chance(0.5)) {
        q.Replace(t);
      } else {
        q.Relocate(t);
      }
    }
    if (rng.Chance(0.3)) q.Step();
  }
  while (q.Step()) {
  }
  EXPECT_EQ(q.Pending(), 0u);
  EXPECT_EQ(q.Processed(), log.size());
  return log;
}

// Property: with the timer lane beside the heap, firing order, events_processed()
// and pending_events() match the reference model over random interleavings, at
// 5 timers, at 12 (the largest pCPU pool in the tree, so the most vCPUs that
// can run at once) and at 64.
TEST(SimulatorPropertyTest, TimerLaneMatchesReferenceModel) {
  for (const int timers : {5, 12, 64}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      const std::vector<FireRecord> got = DriveLaneScript<SimQueue>(seed, timers);
      const std::vector<FireRecord> want = DriveLaneScript<RefQueue>(seed, timers);
      ASSERT_EQ(got, want) << timers << " timers, seed " << seed;
      // Non-vacuous: both kinds fired, and a timer and an event shared a tick.
      bool timer_fired = false;
      bool event_fired = false;
      bool mixed_tie = false;
      for (size_t i = 0; i < got.size(); ++i) {
        const bool is_timer = std::get<1>(got[i]) < timers;
        (is_timer ? timer_fired : event_fired) = true;
        if (i > 0 && std::get<0>(got[i]) == std::get<0>(got[i - 1]) &&
            is_timer != (std::get<1>(got[i - 1]) < timers)) {
          mixed_tie = true;
        }
      }
      EXPECT_TRUE(timer_fired && event_fired && mixed_tie)
          << timers << " timers, seed " << seed;
    }
  }
}

// Pinned: a timer is disarmed when its callback starts, and armed() turns
// true again only once the callback re-arms it.
TEST(SimulatorTimerTest, ArmedIsFalseInsideOwnCallbackUntilRearmed) {
  Simulator sim;
  std::vector<bool> seen;
  int fires = 0;
  Simulator::Timer t;
  t = sim.AddTimer([&] {
    seen.push_back(t.armed());
    if (++fires < 3) {
      t.Arm(sim.Now() + Microseconds(5));
      seen.push_back(t.armed());
    }
  });
  EXPECT_FALSE(t.armed());
  t.Arm(Microseconds(10));
  EXPECT_TRUE(t.armed());
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(seen, (std::vector<bool>{false, true, false, true, false}));
  EXPECT_FALSE(t.armed());
  EXPECT_EQ(sim.Now(), Microseconds(20));
  EXPECT_EQ(sim.events_processed(), 3u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Pinned: Disarm on a timer that was never armed, already fired, or was just
// disarmed does nothing — in particular it never touches another timer. The
// same holds for destroying a moved-from handle, while destroying a handle
// that holds an armed timer removes its pending fire.
TEST(SimulatorTimerTest, DisarmOnDisarmedTimerIsNoOp) {
  Simulator sim;
  int a_fires = 0;
  int b_fires = 0;
  int c_fires = 0;
  Simulator::Timer a = sim.AddTimer([&] { ++a_fires; });
  Simulator::Timer b;
  {
    Simulator::Timer moved = sim.AddTimer([&] { ++b_fires; });
    Simulator::Timer c = sim.AddTimer([&] { ++c_fires; });
    moved.Arm(Microseconds(2));
    c.Arm(Microseconds(2));
    b = std::move(moved);
  }  // destroys the moved-from handle, then c's
  a.Disarm();  // never armed
  a.Arm(Microseconds(1));
  sim.RunUntil(Microseconds(1));
  EXPECT_EQ(a_fires, 1);
  a.Disarm();  // already fired
  a.Disarm();  // and again
  EXPECT_TRUE(b.armed());
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(a_fires, 1);
  EXPECT_EQ(b_fires, 1);
  EXPECT_EQ(c_fires, 0);
  EXPECT_EQ(sim.events_processed(), 2u);
}

// Pinned: Arm with the deadline the timer already has still draws a fresh seq,
// so an event scheduled in between at the same instant now fires first — the
// order a fresh ScheduleAt would give. Keeping the old seq would reorder
// this tie (docs/PERFORMANCE.md).
TEST(SimulatorTimerTest, RearmWithUnchangedDeadlineDrawsFreshSeq) {
  Simulator sim;
  std::vector<char> order;
  Simulator::Timer t = sim.AddTimer([&] { order.push_back('t'); });
  t.Arm(Microseconds(5));
  sim.ScheduleAt(Microseconds(5), [&] { order.push_back('e'); });
  t.Arm(Microseconds(5));
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<char>{'e', 't'}));
}

// Pinned: timers armed at one `when` fire in `seq` order, whatever their ids,
// and a re-arm to the same `when` — here from another timer's callback — draws
// the newest seq, so it fires last among them. An insertion that stops at
// equal deadlines (`<` in place of `<=`) would fire these ties newest-first.
TEST(SimulatorTimerTest, EqualDeadlinesFireInSeqOrder) {
  Simulator sim;
  std::vector<char> order;
  const TimeNs when = Microseconds(5);
  Simulator::Timer a = sim.AddTimer([&] { order.push_back('a'); });
  Simulator::Timer b = sim.AddTimer([&] { order.push_back('b'); });
  Simulator::Timer c = sim.AddTimer([&] { order.push_back('c'); });
  Simulator::Timer d = sim.AddTimer([&] {
    order.push_back('d');
    b.Arm(when);
  });
  c.Arm(when);
  b.Arm(when);
  a.Arm(when);
  d.Arm(Microseconds(1));
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<char>{'d', 'c', 'a', 'b'}));
}

TEST(PeriodicTaskTest, FiresAtFixedPeriod) {
  Simulator sim;
  std::vector<TimeNs> fires;
  PeriodicTask task(sim, Milliseconds(10), [&] { fires.push_back(sim.Now()); });
  task.Start();
  sim.RunUntil(Milliseconds(35));
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], Milliseconds(10));
  EXPECT_EQ(fires[1], Milliseconds(20));
  EXPECT_EQ(fires[2], Milliseconds(30));
}

TEST(PeriodicTaskTest, PhaseControlsFirstFire) {
  Simulator sim;
  std::vector<TimeNs> fires;
  PeriodicTask task(sim, Milliseconds(10), [&] { fires.push_back(sim.Now()); });
  task.Start(/*phase=*/Milliseconds(3));
  sim.RunUntil(Milliseconds(14));
  ASSERT_EQ(fires.size(), 2u);
  EXPECT_EQ(fires[0], Milliseconds(3));
  EXPECT_EQ(fires[1], Milliseconds(13));
}

TEST(PeriodicTaskTest, StopCancelsFutureFires) {
  Simulator sim;
  int fires = 0;
  PeriodicTask task(sim, Milliseconds(1), [&] { ++fires; });
  task.Start();
  sim.RunUntil(Milliseconds(3));
  task.Stop();
  sim.RunUntil(Milliseconds(10));
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTaskTest, DestructorCancels) {
  Simulator sim;
  int fires = 0;
  {
    PeriodicTask task(sim, Milliseconds(1), [&] { ++fires; });
    task.Start();
    sim.RunUntil(Milliseconds(2));
  }
  sim.RunUntil(Milliseconds(10));
  EXPECT_EQ(fires, 2);
}

TEST(PeriodicTaskTest, RestartResets) {
  Simulator sim;
  int fires = 0;
  PeriodicTask task(sim, Milliseconds(5), [&] { ++fires; });
  task.Start();
  sim.RunUntil(Milliseconds(6));
  EXPECT_EQ(fires, 1);
  task.Start();  // restart: next fire 5ms from now
  sim.RunUntil(Milliseconds(12));
  EXPECT_EQ(fires, 2);
}

// Pinned: a PeriodicTask fire and a one-shot due at the same instant fire in
// schedule order, whichever was armed first. Each re-arm draws its seq when
// the previous fire runs, as a ScheduleAfter from inside the callback would.
TEST(PeriodicTaskTest, TiesWithOneShotsFireInScheduleOrder) {
  Simulator sim;
  std::string order;
  PeriodicTask task(sim, Milliseconds(10), [&] { order += 'p'; });
  sim.ScheduleAt(Milliseconds(10), [&] { order += 'a'; });  // before the arm
  task.Start();                                             // due at 10 ms
  sim.ScheduleAt(Milliseconds(10), [&] { order += 'b'; });  // after the arm
  sim.ScheduleAt(Milliseconds(20), [&] { order += 'c'; });  // before the re-arm
  sim.RunUntil(Milliseconds(10));  // the fire re-arms the task for 20 ms
  sim.ScheduleAt(Milliseconds(20), [&] { order += 'd'; });  // after the re-arm
  sim.RunUntil(Milliseconds(20));
  EXPECT_EQ(order, "apbcpd");
}

}  // namespace
}  // namespace vscale
