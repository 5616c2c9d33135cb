// Engine and timer behaviour: ordering, cancellation, determinism —
// everything the upper layers assume about time.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/timer.hpp"
#include "test_seed.hpp"

namespace xrdma::sim {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(micros(30), [&] { order.push_back(3); });
  eng.schedule_at(micros(10), [&] { order.push_back(1); });
  eng.schedule_at(micros(20), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), micros(30));
}

TEST(Engine, EqualTimestampsFireInScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    eng.schedule_at(micros(5), [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ScheduleAfterIsRelativeToNow) {
  Engine eng;
  Nanos fired_at = -1;
  eng.schedule_after(micros(10), [&] {
    eng.schedule_after(micros(5), [&] { fired_at = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(fired_at, micros(15));
}

TEST(Engine, CancelPreventsFiring) {
  Engine eng;
  bool fired = false;
  auto id = eng.schedule_after(micros(10), [&] { fired = true; });
  EXPECT_TRUE(eng.cancel(id));
  EXPECT_FALSE(eng.cancel(id));  // second cancel is a no-op
  eng.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(Engine, CancelAfterFireReturnsFalse) {
  Engine eng;
  auto id = eng.schedule_after(micros(1), [] {});
  eng.run();
  EXPECT_FALSE(eng.cancel(id));
}

TEST(Engine, RunUntilAdvancesTimeEvenWithoutEvents) {
  Engine eng;
  eng.run_until(millis(3));
  EXPECT_EQ(eng.now(), millis(3));
}

TEST(Engine, RunUntilLeavesLaterEventsPending) {
  Engine eng;
  bool early = false, late = false;
  eng.schedule_at(micros(10), [&] { early = true; });
  eng.schedule_at(micros(100), [&] { late = true; });
  eng.run_until(micros(50));
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(eng.now(), micros(50));
  EXPECT_EQ(eng.pending(), 1u);
  eng.run();
  EXPECT_TRUE(late);
}

TEST(Engine, StopHaltsRun) {
  Engine eng;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    eng.schedule_at(micros(i), [&] {
      if (++count == 3) eng.stop();
    });
  }
  eng.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(eng.pending(), 7u);
}

TEST(Engine, NeverSchedulesIntoThePast) {
  Engine eng;
  eng.schedule_at(micros(10), [&] {
    // Asking for an earlier time clamps to now.
    eng.schedule_at(micros(1), [&] { EXPECT_EQ(eng.now(), micros(10)); });
  });
  eng.run();
}

TEST(PeriodicTimer, FiresEveryPeriodUntilStopped) {
  Engine eng;
  int fires = 0;
  PeriodicTimer timer(eng, micros(10), [&] {
    if (++fires == 5) timer.stop();
  });
  timer.start();
  eng.run();
  EXPECT_EQ(fires, 5);
  EXPECT_EQ(eng.now(), micros(50));
}

TEST(PeriodicTimer, DestructionCancelsPending) {
  Engine eng;
  int fires = 0;
  {
    PeriodicTimer timer(eng, micros(10), [&] { ++fires; });
    timer.start();
  }
  eng.run();
  EXPECT_EQ(fires, 0);
}

TEST(DeadlineTimer, NotArmedInsideOwnCallback) {
  // Regression: fire() used to keep the event node alive while running the
  // callback, so armed() read true *inside the timer's own handler*. Any
  // handler that conditionally re-arms ("if (!armed()) arm_after(...)") —
  // the memory-retry and keepalive pattern — silently skipped the re-arm
  // and the timer went dead forever.
  Engine eng;
  int fires = 0;
  DeadlineTimer* self = nullptr;
  DeadlineTimer timer(eng, [&] {
    ++fires;
    EXPECT_FALSE(self->armed());
    if (fires < 3 && !self->armed()) self->arm_after(micros(10));
  });
  self = &timer;
  timer.arm_after(micros(10));
  eng.run();
  EXPECT_EQ(fires, 3);

  // The firing node goes back to the free list only after its callback,
  // so a re-arm from inside the handler takes another node and the
  // running capture stays intact.
  Engine::EventId id;
  std::vector<int> seen;
  std::function<void(int)> arm = [&](int round) {
    id = eng.schedule_after(micros(1), [&, round,
                                        tag = std::make_unique<int>(round)] {
      EXPECT_FALSE(id.armed());
      if (round < 3) arm(round + 1);
      seen.push_back(*tag);
    });
  };
  arm(1);
  eng.run();
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

TEST(DeadlineTimer, RearmPushesDeadlineBack) {
  Engine eng;
  Nanos fired_at = -1;
  DeadlineTimer timer(eng, [&] { fired_at = eng.now(); });
  timer.arm_after(micros(10));
  eng.schedule_at(micros(5), [&] { timer.arm_after(micros(10)); });
  eng.run();
  EXPECT_EQ(fired_at, micros(15));
}

TEST(Engine, DeterministicEventCount) {
  auto run_once = [] {
    Engine eng;
    std::uint64_t sum = 0;
    for (int i = 0; i < 100; ++i) {
      eng.schedule_at(micros(i % 7), [&eng, &sum, i] {
        sum += static_cast<std::uint64_t>(i) * eng.events_processed();
      });
    }
    eng.run();
    return sum;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, EmptyCallbackIsInert) {
  // An empty callback schedules nothing in every build: it used to bump
  // pending() for good when assert() was compiled out, because step()
  // skipped the node without counting it down.
  Engine eng;
  auto at = eng.schedule_at(micros(5), Engine::Callback{});
  auto after = eng.schedule_after(micros(5), nullptr);
  // An empty std::function or null function pointer converts to an empty
  // callback, as it would to an empty std::function.
  auto none = eng.schedule_after(micros(5), std::function<void()>{});
  void (*null_fn)() = nullptr;
  auto null_ptr = eng.schedule_after(micros(5), null_fn);
  // Passed as lvalues, and an InlineCallback emptied by a move.
  const std::function<void()> empty_fn;
  auto none_lvalue = eng.schedule_at(micros(5), empty_fn);
  auto null_at = eng.schedule_at(micros(5), null_fn);
  Engine::Callback moved_from = [&eng] { eng.stop(); };
  Engine::Callback taker = std::move(moved_from);
  auto emptied =
      eng.schedule_at(micros(5), std::move(moved_from));  // NOLINT
  EXPECT_FALSE(at.armed());
  EXPECT_FALSE(after.armed());
  EXPECT_FALSE(none.armed());
  EXPECT_FALSE(null_ptr.armed());
  EXPECT_FALSE(none_lvalue.armed());
  EXPECT_FALSE(null_at.armed());
  EXPECT_FALSE(emptied.armed());
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_FALSE(eng.cancel(at));
  eng.run();
  EXPECT_EQ(eng.events_processed(), 0u);
  EXPECT_FALSE(eng.step());
}

TEST(Engine, StaleIdDoesNotArmAReusedNode) {
  // Freed nodes are reused; the generation tag keeps a stale handle from
  // reading (or cancelling) the node's next event.
  Engine eng;
  bool old_fired = false;
  bool new_fired = false;
  auto id = eng.schedule_after(micros(10), [&] { old_fired = true; });
  const auto old = id;
  EXPECT_TRUE(eng.cancel(id));
  auto fresh = eng.schedule_after(micros(10), [&] { new_fired = true; });
  EXPECT_TRUE(fresh.armed());
  EXPECT_FALSE(old.armed());
  auto old_copy = old;
  EXPECT_FALSE(eng.cancel(old_copy));
  EXPECT_TRUE(fresh.armed());
  EXPECT_EQ(eng.pending(), 1u);
  eng.run();
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(new_fired);
  EXPECT_FALSE(fresh.armed());

  // Same after a fire: the fired event's node carries the next event.
  auto fired_id = eng.schedule_after(micros(1), [] {});
  eng.run();
  int later = 0;
  auto next = eng.schedule_after(micros(1), [&] { ++later; });
  EXPECT_FALSE(fired_id.armed());
  EXPECT_FALSE(eng.cancel(fired_id));
  EXPECT_TRUE(next.armed());
  eng.run();
  EXPECT_EQ(later, 1);
}

TEST(Engine, CallbackCancelsSameTimestampPeer) {
  Engine eng;
  std::vector<int> order;
  Engine::EventId peer;
  eng.schedule_at(micros(5), [&] {
    order.push_back(1);
    EXPECT_TRUE(eng.cancel(peer));
    // A peer scheduled now for the same instant runs after the queued ones.
    eng.schedule_at(micros(5), [&] { order.push_back(4); });
  });
  peer = eng.schedule_at(micros(5), [&] { order.push_back(2); });
  eng.schedule_at(micros(5), [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(eng.events_processed(), 3u);
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_EQ(eng.now(), micros(5));
}

TEST(Engine, MatchesReferenceModelUnderRandomOps) {
  // Seeded random schedule / cancel / step / run_until, against a
  // std::map keyed on (at, seq). Some events cancel another event or
  // schedule a child from inside their callback.
  using Key = std::pair<Nanos, std::uint64_t>;
  constexpr std::size_t kNone = ~std::size_t{0};
  struct Action {
    std::size_t cancel = kNone;  // event to cancel when fired
    std::size_t child = kNone;   // event to schedule when fired
    Nanos child_delay = 0;
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Engine eng;
    std::vector<Action> actions;  // per event id
    std::vector<Engine::EventId> handles;
    std::vector<std::size_t> fired;

    std::map<Key, std::size_t> model;
    std::vector<std::optional<Key>> live;  // model: pending key per id
    std::vector<std::size_t> model_fired;
    Nanos model_now = 0;
    std::uint64_t model_seq = 0;
    std::uint64_t model_processed = 0;

    auto new_id = [&] {
      actions.emplace_back();
      handles.emplace_back();
      live.emplace_back();
      return handles.size() - 1;
    };
    std::function<void(std::size_t, Nanos)> engine_schedule =
        [&](std::size_t id, Nanos at) {
          handles[id] = eng.schedule_at(at, [&, id] {
            fired.push_back(id);
            const Action& a = actions[id];
            if (a.cancel != kNone) eng.cancel(handles[a.cancel]);
            if (a.child != kNone) {
              engine_schedule(a.child, eng.now() + a.child_delay);
            }
          });
        };
    auto model_schedule = [&](std::size_t id, Nanos at) {
      const Key k{std::max(at, model_now), model_seq++};
      model[k] = id;
      live[id] = k;
    };
    auto model_cancel = [&](std::size_t id) {
      if (!live[id]) return false;
      model.erase(*live[id]);
      live[id].reset();
      return true;
    };
    auto model_step = [&] {
      const auto [k, id] = *model.begin();
      model.erase(model.begin());
      live[id].reset();
      model_now = k.first;
      ++model_processed;
      model_fired.push_back(id);
      const Action& a = actions[id];
      if (a.cancel != kNone) model_cancel(a.cancel);
      if (a.child != kNone) model_schedule(a.child, model_now + a.child_delay);
    };
    auto check = [&](bool all_handles) {
      ASSERT_EQ(fired, model_fired);
      ASSERT_EQ(eng.pending(), model.size());
      ASSERT_EQ(eng.events_processed(), model_processed);
      ASSERT_EQ(eng.now(), model_now);
      if (!all_handles) return;
      for (std::size_t i = 0; i < handles.size(); ++i) {
        ASSERT_EQ(handles[i].armed(), live[i].has_value()) << "id " << i;
      }
    };

    for (int op = 0; op < 3000; ++op) {
      const auto roll = rng.next_below(10);
      if (roll < 5) {  // schedule, sometimes into the past or a tie
        const std::size_t id = new_id();
        Action a;
        if (id > 0 && rng.chance(0.2)) a.cancel = rng.next_below(id);
        if (rng.chance(0.2)) {
          a.child = new_id();
          a.child_delay = rng.uniform(0, 3);
        }
        actions[id] = a;
        const Nanos at = eng.now() + rng.uniform(-3, 40);
        engine_schedule(id, at);
        model_schedule(id, at);
      } else if (roll < 7) {  // cancel any id, live or not
        if (handles.empty()) continue;
        const std::size_t id = rng.next_below(handles.size());
        const bool expect = model_cancel(id);
        ASSERT_EQ(eng.cancel(handles[id]), expect);
      } else if (roll < 9) {
        const bool expect = !model.empty();
        if (expect) model_step();
        ASSERT_EQ(eng.step(), expect);
      } else {
        const Nanos t = eng.now() + rng.uniform(0, 20);
        while (!model.empty() && model.begin()->first.first <= t) model_step();
        model_now = std::max(model_now, t);
        eng.run_until(t);
      }
      check(op % 64 == 0);
      if (HasFatalFailure()) return;
    }
    while (!model.empty()) model_step();
    eng.run();
    check(true);
  }
}

TEST(Engine, ChurnMatchesReferenceAndCompactsStaleEntries) {
  // The keepalive / MemCache pattern: a fixed set of far-future timers,
  // re-armed (cancel + schedule) over and over, while near-term events fire.
  // Some callbacks cancel or re-arm another slot from inside. Checked against
  // a std::map keyed on (at, seq): identical firing order, correct armed()
  // across compactions, and a heap that never holds more than
  // 2 * pending() + kCompactSlack entries. The far band lies well past the
  // wheel's horizon, so deferred deadlines are cancelled while they sit in
  // the heap; a second band straddles the horizon, so events migrate from
  // the heap into the wheel while near-term events join the same slots.
  using Key = std::pair<Nanos, std::uint64_t>;
  constexpr std::size_t kSlots = 100;
  // Base 0 (every push) runs the fixed seeds 1-4. A non-zero
  // XRDMA_TEST_SEED base runs only four seeds derived from the case's, so a
  // sweep over many bases does not re-run the same fixed ones each time.
  XRDMA_CASE_SEED(case_seed);
  std::vector<std::uint64_t> seeds{1, 2, 3, 4};
  if (::xrdma::testing::test_seed_base() != 0) {
    for (std::uint64_t k = 1; k <= 4; ++k) {
      seeds[k - 1] = case_seed ^ (k * 0x9e3779b97f4a7c15ULL);
    }
  }
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Engine eng;
    std::vector<Engine::EventId> handles(kSlots);
    std::vector<std::size_t> fired;
    std::size_t compactions = 0;

    std::map<Key, std::size_t> model;
    std::vector<std::optional<Key>> live(kSlots);
    std::vector<std::size_t> model_fired;
    Nanos model_now = 0;
    std::uint64_t model_seq = 0;

    // What slot `i`'s callback does to slot (i * 7 + 1) % kSlots: even slots
    // cancel it, slots divisible by 3 re-arm it 50 ns out.
    auto other = [](std::size_t i) { return (i * 7 + 1) % kSlots; };
    std::function<void(std::size_t, Nanos)> engine_arm;
    auto engine_cancel = [&](std::size_t i) {
      const std::size_t before = eng.queued_entries();
      const bool was = eng.cancel(handles[i]);
      if (eng.queued_entries() + 1 < before) ++compactions;
      return was;
    };
    engine_arm = [&](std::size_t i, Nanos at) {
      engine_cancel(i);
      handles[i] = eng.schedule_at(at, [&, i] {
        fired.push_back(i);
        if (i % 2 == 0) engine_cancel(other(i));
        if (i % 3 == 0) engine_arm(other(i), eng.now() + 50);
      });
    };
    auto model_cancel = [&](std::size_t i) {
      if (!live[i]) return false;
      model.erase(*live[i]);
      live[i].reset();
      return true;
    };
    auto model_arm = [&](std::size_t i, Nanos at) {
      model_cancel(i);
      const Key k{std::max(at, model_now), model_seq++};
      model[k] = i;
      live[i] = k;
    };
    auto model_step = [&] {
      const auto [k, i] = *model.begin();
      model.erase(model.begin());
      live[i].reset();
      model_now = k.first;
      model_fired.push_back(i);
      if (i % 2 == 0) model_cancel(other(i));
      if (i % 3 == 0) model_arm(other(i), model_now + 50);
    };
    auto check = [&] {
      ASSERT_EQ(fired, model_fired);
      ASSERT_EQ(eng.pending(), model.size());
      ASSERT_EQ(eng.now(), model_now);
      ASSERT_LE(eng.queued_entries(),
                2 * eng.pending() + Engine::kCompactSlack);
      for (std::size_t i = 0; i < kSlots; ++i) {
        ASSERT_EQ(handles[i].armed(), live[i].has_value()) << "slot " << i;
      }
    };

    for (int op = 0; op < 20000; ++op) {
      const auto roll = rng.next_below(20);
      const std::size_t i = rng.next_below(kSlots);
      if (roll < 12) {  // re-arm, mostly far out (a deferred deadline)
        const double band = rng.next_double();
        const Nanos at =
            eng.now() +
            (band < 0.7   ? rng.uniform(100'000, 150'000)
             : band < 0.8 ? rng.uniform(Engine::kHorizon - 2,
                                        Engine::kHorizon + 2)
                          : rng.uniform(-5, 200));
        engine_arm(i, at);
        model_arm(i, at);
      } else if (roll < 15) {
        ASSERT_EQ(engine_cancel(i), model_cancel(i));
      } else if (roll < 19) {
        const bool expect = !model.empty();
        if (expect) model_step();
        ASSERT_EQ(eng.step(), expect);
      } else {
        const Nanos t = eng.now() + rng.uniform(0, 100);
        while (!model.empty() && model.begin()->first.first <= t) model_step();
        model_now = std::max(model_now, t);
        eng.run_until(t);
      }
      if (op % 97 == 0) check();
      if (HasFatalFailure()) return;
    }
    while (!model.empty()) model_step();
    eng.run();
    check();
    EXPECT_GT(compactions, 10u) << "the churn must exercise compaction";
    EXPECT_EQ(eng.queued_entries(), 0u);
  }
}

TEST(Engine, DeadlineTimerChurnKeepsTheHeapSmall) {
  // One timer deferred 10 000 times over 3 000 far-future events: without
  // compaction every deferral would leave a stale entry behind.
  Engine eng;
  int sink = 0;
  for (int i = 0; i < 3000; ++i) {
    eng.schedule_after(seconds(1) + i, [&sink] { ++sink; });
  }
  DeadlineTimer timer(eng, [&sink] { ++sink; });
  for (int i = 0; i < 10000; ++i) {
    timer.arm_after(millis(15));
    ASSERT_LE(eng.queued_entries(), 2 * eng.pending() + Engine::kCompactSlack);
  }
  EXPECT_EQ(eng.pending(), 3001u);
  eng.run();
  EXPECT_EQ(sink, 3001);
}

// Timing-wheel edges. Each test reaches its critical instant by a jump of
// now() (run_until, or a fire that crosses a far event's horizon), so a
// wheel that moved heap events in lazily rather than whenever now()
// advances fires them out of (at, seq) order or at the wrong time.
constexpr Nanos kH = Engine::kHorizon;
using Fired = std::vector<std::pair<int, Nanos>>;

/// Records (tag, now()) for every event it labels.
struct FireLog {
  explicit FireLog(Engine& e) : eng(e) {}
  Engine& eng;
  Fired fired;
  auto operator()(int tag) {
    return [this, tag] { fired.emplace_back(tag, eng.now()); };
  }
};

TEST(EngineWheel, FarEventFiresBeforeALaterDirectInsertForItsInstant) {
  Engine eng;
  FireLog log(eng);
  // Reached by run_until: the far event migrates at the end of the jump,
  // before the direct insert for the same instant.
  const Nanos t1 = 10 * kH + 7;
  eng.schedule_at(t1, log(0));
  eng.run_until(t1 - kH + 1);
  eng.schedule_at(t1, log(1));
  // Reached by firing: the event at t2 - kH + 1 moves now() past the far
  // event's horizon, so it joins its slot before the callback's insert.
  const Nanos t2 = 30 * kH + 11;
  eng.schedule_at(t2, log(2));
  eng.schedule_at(t2 - kH + 1, [&] { eng.schedule_at(t2, log(3)); });
  eng.run();
  EXPECT_EQ(log.fired, (Fired{{0, t1}, {1, t1}, {2, t2}, {3, t2}}));
}

TEST(EngineWheel, RunUntilJumpsManyHorizonsOverHeapEvents) {
  Engine eng;
  FireLog log(eng);
  const Nanos end = 15 * kH;
  eng.schedule_at(kH / 2, log(0));
  eng.schedule_at(3 * kH + 1, log(1));
  eng.schedule_at(3 * kH + 1, log(2));
  eng.schedule_at(7 * kH - 1, log(3));
  eng.schedule_at(7 * kH, log(4));
  eng.schedule_at(12 * kH + 5, log(5));
  // Within one horizon of `end`: these migrate when the jump ends, so they
  // precede the later direct inserts for their instants.
  eng.schedule_at(end + kH - 1, log(6));
  eng.schedule_at(end + 1, log(7));
  eng.run_until(end);
  EXPECT_EQ(eng.now(), end);
  EXPECT_EQ(log.fired, (Fired{{0, kH / 2},
                              {1, 3 * kH + 1},
                              {2, 3 * kH + 1},
                              {3, 7 * kH - 1},
                              {4, 7 * kH},
                              {5, 12 * kH + 5}}));
  log.fired.clear();
  eng.schedule_at(end + kH - 1, log(8));
  eng.schedule_at(end + 1, log(9));
  EXPECT_EQ(eng.pending(), 4u);
  eng.run();
  EXPECT_EQ(log.fired, (Fired{{7, end + 1},
                              {9, end + 1},
                              {6, end + kH - 1},
                              {8, end + kH - 1}}));
}

TEST(EngineWheel, CancelHeadMiddleAndTailOfOneSlot) {
  Engine eng;
  FireLog log(eng);
  const Nanos t = 5 * kH + 3;
  std::vector<Engine::EventId> ids;
  // Two far events migrate into t's slot, then four direct inserts join.
  ids.push_back(eng.schedule_at(t, log(0)));
  ids.push_back(eng.schedule_at(t, log(1)));
  eng.run_until(t - kH + 1);
  for (int i = 2; i < 6; ++i) ids.push_back(eng.schedule_at(t, log(i)));
  EXPECT_TRUE(eng.cancel(ids[0]));  // head
  EXPECT_TRUE(eng.cancel(ids[3]));  // middle
  EXPECT_TRUE(eng.cancel(ids[5]));  // tail
  EXPECT_FALSE(eng.cancel(ids[5]));
  EXPECT_EQ(eng.pending(), 3u);
  EXPECT_EQ(eng.queued_entries(), 0u);  // a wheel cancel leaves nothing
  // A new tail after the cancelled one still fires last.
  eng.schedule_at(t, log(6));
  eng.run();
  EXPECT_EQ(log.fired, (Fired{{1, t}, {2, t}, {4, t}, {6, t}}));

  // Emptying a slot by cancels clears it: later events still fire, and a
  // fresh insert into the same slot one lap later is alone in it.
  log.fired.clear();
  auto a = eng.schedule_at(t + 10, log(7));
  auto b = eng.schedule_at(t + 10, log(8));
  eng.schedule_at(t + 20, log(9));
  EXPECT_TRUE(eng.cancel(b));
  EXPECT_TRUE(eng.cancel(a));
  eng.schedule_at(t + 10 + kH, log(10));
  eng.run();
  EXPECT_EQ(log.fired, (Fired{{9, t + 20}, {10, t + 10 + kH}}));
}

TEST(EngineWheel, SlotIndicesWrapAroundTheWheel) {
  Engine eng;
  FireLog log(eng);
  const Nanos base = 3 * kH + (kH - 2);  // now % kH == kH - 2 after the jump
  eng.schedule_at(base + 1, log(0));    // far: slot kH - 1
  eng.schedule_at(base + 2, log(1));    // far: slot 0, after the wrap
  eng.run_until(base);
  // Direct inserts in reverse time order, spanning the wrap.
  eng.schedule_at(base + kH - 1, log(2));  // slot kH - 3, a lap ahead
  eng.schedule_at(base + 66, log(3));      // slot 64: the next bitmap word
  eng.schedule_at(base + 2, log(4));
  eng.schedule_at(base + 1, log(5));
  eng.schedule_at(base, log(6));
  eng.run();
  EXPECT_EQ(log.fired, (Fired{{6, base},
                              {0, base + 1},
                              {5, base + 1},
                              {1, base + 2},
                              {4, base + 2},
                              {3, base + 66},
                              {2, base + kH - 1}}));
}

TEST(EngineWheel, PastTimeScheduleClampsToNowBehindQueuedPeers) {
  Engine eng;
  FireLog log(eng);
  const Nanos t = 8 * kH + 9;
  // Far events for t; the second one schedules into the past from inside
  // its callback, which clamps to t behind everything queued for t.
  eng.schedule_at(t, log(0));
  eng.schedule_at(t, [&] { eng.schedule_at(t - 1000, log(1)); });
  eng.schedule_at(t, log(2));
  eng.run_until(t - 1);
  eng.schedule_at(t, log(3));
  // From outside a callback: clamps to now() = t - 1, ahead of them all.
  auto past = eng.schedule_at(0, log(4));
  EXPECT_TRUE(past.armed());
  eng.run();
  EXPECT_EQ(log.fired, (Fired{{4, t - 1}, {0, t}, {2, t}, {3, t}, {1, t}}));
}

struct Oversized {
  char pad[InlineCallback::kInlineBytes + 1];
  void operator()() {}
};
struct Fits {
  char pad[InlineCallback::kInlineBytes];
  void operator()() {}
};
// A capture that does not fit must not compile: there is no heap fallback.
static_assert(!std::is_constructible_v<Engine::Callback, Oversized>);
static_assert(std::is_constructible_v<Engine::Callback, Fits>);
static_assert(!std::is_copy_constructible_v<Engine::Callback>);
// Nor may it be scheduled, even though schedule_at builds the capture in
// its node rather than through a Callback.
template <class F>
concept Schedulable = requires(Engine& e, F f) {
  e.schedule_at(0, std::move(f));
  e.schedule_after(0, std::move(f));
};
static_assert(!Schedulable<Oversized>);
static_assert(Schedulable<Fits>);
static_assert(!Schedulable<int>);

TEST(InlineCallback, HoldsMoveOnlyCaptures) {
  Engine eng;
  int got = 0;
  auto box = std::make_unique<int>(41);
  eng.schedule_after(micros(1), [&got, p = std::move(box)] { got = *p + 1; });
  eng.run();
  EXPECT_EQ(got, 42);

  // Moving a callable moves its capture; the source is left empty.
  Engine::Callback a = [&got, p = std::make_unique<int>(7)] { got = *p; };
  Engine::Callback b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(got, 7);

  // A prebuilt callable with a move-only capture is moved into its node.
  Engine::Callback c = [&got, p = std::make_unique<int>(9)] { got = *p; };
  auto id = eng.schedule_after(micros(1), std::move(c));
  EXPECT_FALSE(c);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(id.armed());
  eng.run();
  EXPECT_EQ(got, 9);
}

// Counts every move and every destruction, moved-from shells included.
struct Census {
  int moves = 0;
  int destroys = 0;
  int calls = 0;
};
struct Counted {
  Census* census;
  explicit Counted(Census* c) : census(c) {}
  Counted(Counted&& o) noexcept : census(o.census) { ++census->moves; }
  Counted(const Counted&) = delete;
  ~Counted() { ++census->destroys; }
  void operator()() { ++census->calls; }
};

TEST(InlineCallback, CapturesAreBuiltOnceAndDestroyedExactlyOnce) {
  // schedule_at moves its argument straight into the node that fires it:
  // one move, no temporary callback. So each capture here is destroyed
  // twice, its shell at the call site and then the node's copy, whether
  // the event fires, is cancelled (also across a heap compaction), or is
  // still pending when the engine goes.
  Census fired;
  Census cancelled;
  Census churn;
  Census pending;
  {
    Engine eng;
    eng.schedule_after(micros(1), Counted(&fired));
    auto id = eng.schedule_after(micros(1), Counted(&cancelled));
    eng.schedule_after(micros(2), Counted(&pending));
    EXPECT_EQ(fired.destroys, 1);
    const int kChurn = 4 * static_cast<int>(Engine::kCompactSlack);
    for (int i = 0; i < kChurn; ++i) {
      auto far = eng.schedule_after(micros(5), Counted(&churn));
      eng.cancel(far);
    }
    EXPECT_EQ(churn.moves, kChurn);
    EXPECT_EQ(churn.destroys, 2 * kChurn);
    EXPECT_TRUE(eng.cancel(id));
    EXPECT_EQ(cancelled.destroys, 2);
    eng.run_until(micros(1));
    EXPECT_EQ(fired.calls, 1);
    EXPECT_EQ(fired.destroys, 2);
    EXPECT_EQ(pending.destroys, 1);
  }
  EXPECT_EQ(pending.destroys, 2);
  for (const Census* c : {&fired, &cancelled, &pending}) {
    EXPECT_EQ(c->moves, 1);
  }
  EXPECT_EQ(cancelled.calls + churn.calls + pending.calls, 0);

  // A prebuilt InlineCallback is relocated into the node: one move more.
  Census prebuilt;
  {
    Engine eng;
    Engine::Callback cb = Counted(&prebuilt);
    eng.schedule_after(micros(1), std::move(cb));
    eng.run();
  }
  EXPECT_EQ(prebuilt.moves, 2);
  EXPECT_EQ(prebuilt.destroys, 3);
  EXPECT_EQ(prebuilt.calls, 1);
}

}  // namespace
}  // namespace xrdma::sim
