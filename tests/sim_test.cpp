// Tests for the discrete-event simulator and the network layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/king_loader.hpp"
#include "net/latency_model.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace lmk {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(30, [&] { fired.push_back(3); });
  q.push(10, [&] { fired.push_back(1); });
  q.push(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop(nullptr)();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TieBreaksByInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.push(7, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop(nullptr)();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PopReportsTime) {
  EventQueue q;
  q.push(42, [] {});
  SimTime at = 0;
  q.pop(&at);
  EXPECT_EQ(at, 42);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule_after(100, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule_after(10, [&] {
    times.push_back(sim.now());
    sim.schedule_after(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(10, [&] { ++fired; });
  sim.schedule_after(20, [&] { ++fired; });
  sim.schedule_after(30, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunWithLimitExecutesExactly) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_after(i, [&] { ++fired; });
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.pending(), 6u);
}

TEST(Simulator, DrainDropsPending) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(5, [&] { ++fired; });
  sim.drain();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  sim.schedule_after(10, [] {});
  sim.run();
  SimTime seen = -1;
  sim.schedule_after(0, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 10);
}

// ----- latency models -----

TEST(ConstantLatency, SymmetricZeroDiagonal) {
  ConstantLatencyModel m(4, 10 * kMillisecond);
  EXPECT_EQ(m.latency(0, 0), 0);
  EXPECT_EQ(m.latency(1, 2), 10 * kMillisecond);
  EXPECT_EQ(m.latency(2, 1), 10 * kMillisecond);
  EXPECT_EQ(m.mean_rtt(), 20 * kMillisecond);
}

TEST(DelaySpace, HitsTargetMeanRtt) {
  DelaySpaceModel::Options opts;
  opts.hosts = 200;
  opts.target_mean_rtt = 180 * kMillisecond;
  opts.seed = 3;
  DelaySpaceModel m(opts);
  SimTime rtt = m.mean_rtt();
  EXPECT_NEAR(static_cast<double>(rtt), 180.0 * kMillisecond,
              2.0 * kMillisecond);
}

TEST(DelaySpace, SymmetricAndPositive) {
  DelaySpaceModel::Options opts;
  opts.hosts = 50;
  opts.seed = 4;
  DelaySpaceModel m(opts);
  for (HostId a = 0; a < 50; ++a) {
    for (HostId b = 0; b < 50; ++b) {
      EXPECT_EQ(m.latency(a, b), m.latency(b, a));
      if (a != b) {
        EXPECT_GT(m.latency(a, b), 0);
      }
    }
  }
}

TEST(DelaySpace, DeterministicForSeed) {
  DelaySpaceModel::Options opts;
  opts.hosts = 30;
  opts.seed = 5;
  DelaySpaceModel a(opts), b(opts);
  for (HostId i = 0; i < 30; ++i) {
    EXPECT_EQ(a.latency(0, i), b.latency(0, i));
  }
}

TEST(DelaySpace, LatencySpreadIsRealistic) {
  DelaySpaceModel::Options opts;
  opts.hosts = 300;
  opts.seed = 6;
  DelaySpaceModel m(opts);
  SimTime lo = m.latency(0, 1), hi = lo;
  for (HostId a = 0; a < 100; ++a) {
    for (HostId b = a + 1; b < 100; ++b) {
      lo = std::min(lo, m.latency(a, b));
      hi = std::max(hi, m.latency(a, b));
    }
  }
  EXPECT_LT(lo * 4, hi);  // near vs far hosts differ substantially
}

TEST(MatrixLatency, SymmetrizesInput) {
  std::vector<SimTime> m{0, 5, 9, 0};
  MatrixLatencyModel model(2, std::move(m));
  EXPECT_EQ(model.latency(0, 1), 9);
  EXPECT_EQ(model.latency(1, 0), 9);
  EXPECT_EQ(model.latency(0, 0), 0);
}

// ----- King-format matrix loader -----

TEST(KingLoader, ParsesMeasurementsAndHalvesRtt) {
  std::string error;
  auto model = parse_king_matrix("0 1 20000\n1 2 40000\n", 3, &error);
  ASSERT_NE(model, nullptr) << error;
  EXPECT_EQ(model->latency(0, 1), 10000);
  EXPECT_EQ(model->latency(1, 0), 10000);
  EXPECT_EQ(model->latency(1, 2), 20000);
  EXPECT_EQ(model->latency(0, 0), 0);
}

TEST(KingLoader, MissingPairsUseMedian) {
  std::string error;
  auto model = parse_king_matrix("0 1 10000\n1 2 30000\n2 3 50000\n", 4,
                                 &error);
  ASSERT_NE(model, nullptr) << error;
  // Unmeasured pair (0,3) falls back to the median one-way (15000).
  EXPECT_EQ(model->latency(0, 3), 15000);
}

TEST(KingLoader, IgnoresCommentsAndBlankLines) {
  std::string error;
  auto model = parse_king_matrix(
      "# header comment\n\n0 1 1000  # trailing\n\n", 2, &error);
  ASSERT_NE(model, nullptr) << error;
  EXPECT_EQ(model->latency(0, 1), 500);
}

TEST(KingLoader, RejectsMalformedInput) {
  std::string error;
  EXPECT_EQ(parse_king_matrix("0 1\n", 2, &error), nullptr);
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_EQ(parse_king_matrix("0 9 100\n", 2, &error), nullptr);
  EXPECT_EQ(parse_king_matrix("0 1 -5\n", 2, &error), nullptr);
  EXPECT_EQ(parse_king_matrix("", 2, &error), nullptr);
}

TEST(KingLoader, RejectsConflictingDuplicatePairs) {
  std::string error;
  // Same pair, different rtt: the last line must not silently win.
  EXPECT_EQ(parse_king_matrix("0 1 20000\n0 1 30000\n", 2, &error), nullptr);
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("conflicting duplicate"), std::string::npos) << error;
  // Symmetric restatement conflicts through the mirrored cell too.
  EXPECT_EQ(parse_king_matrix("0 1 20000\n1 0 30000\n", 2, &error), nullptr);
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(KingLoader, IdenticalDuplicatePairsAreTolerated) {
  std::string error;
  auto model = parse_king_matrix(
      "0 1 20000\n0 1 20000\n1 0 20000\n1 2 40000\n2 3 60000\n", 4, &error);
  ASSERT_NE(model, nullptr) << error;
  EXPECT_EQ(model->latency(0, 1), 10000);
  // The repeats must not be double-counted in the median fallback:
  // one-way samples are {10000, 20000, 30000}, median 20000.
  EXPECT_EQ(model->latency(0, 3), 20000);
}

TEST(KingLoader, RejectsOverflowingRtt) {
  std::string error;
  // 2^63 does not fit SimTime (int64); must be a clear per-line error,
  // not a garbage latency or a generic parse failure.
  EXPECT_EQ(parse_king_matrix("0 1 9223372036854775808\n", 2, &error),
            nullptr);
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_NE(error.find("overflows SimTime"), std::string::npos) << error;
  // Max int64 itself still parses (and halves).
  auto model = parse_king_matrix("0 1 9223372036854775806\n", 2, &error);
  ASSERT_NE(model, nullptr) << error;
  EXPECT_EQ(model->latency(0, 1), 4611686018427387903LL);
}

TEST(KingLoader, RejectsNonNumericRtt) {
  std::string error;
  EXPECT_EQ(parse_king_matrix("0 1 12ms\n", 2, &error), nullptr);
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(KingLoader, LoadsFromFile) {
  const char* path = "/tmp/lmk_king_test.txt";
  {
    std::FILE* f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr);
    std::fputs("0 1 2000\n0 2 4000\n1 2 6000\n", f);
    std::fclose(f);
  }
  std::string error;
  auto model = load_king_matrix(path, 3, &error);
  ASSERT_NE(model, nullptr) << error;
  EXPECT_EQ(model->latency(2, 1), 3000);
  EXPECT_EQ(load_king_matrix("/nonexistent/x", 3, &error), nullptr);
}

// ----- network -----

TEST(Network, DeliversAfterLatency) {
  Simulator sim;
  ConstantLatencyModel topo(3, 25 * kMillisecond);
  Network net(sim, topo);
  SimTime arrival = -1;
  net.send(0, 1, 100, [&] { arrival = sim.now(); });
  sim.run();
  EXPECT_EQ(arrival, 25 * kMillisecond);
}

TEST(Network, SelfSendIsImmediateButAsync) {
  Simulator sim;
  ConstantLatencyModel topo(2, 10);
  Network net(sim, topo);
  bool delivered = false;
  net.send(1, 1, 10, [&] { delivered = true; });
  EXPECT_FALSE(delivered);  // not synchronous
  sim.run();
  EXPECT_TRUE(delivered);
}

TEST(Network, CountsTraffic) {
  Simulator sim;
  ConstantLatencyModel topo(3, 5);
  Network net(sim, topo);
  TrafficCounter mine;
  net.send(0, 1, 100, [] {}, &mine);
  net.send(1, 2, 50, [] {});
  sim.run();
  EXPECT_EQ(net.total_traffic().messages, 2u);
  EXPECT_EQ(net.total_traffic().bytes, 150u);
  EXPECT_EQ(mine.messages, 1u);
  EXPECT_EQ(mine.bytes, 100u);
}

TEST(Network, ConcurrentMessagesKeepOrderPerLatency) {
  Simulator sim;
  std::vector<SimTime> m{0, 10, 30, 10, 0, 10, 30, 10, 0};
  MatrixLatencyModel topo(3, std::move(m));
  Network net(sim, topo);
  std::vector<int> order;
  net.send(0, 2, 1, [&] { order.push_back(2); });  // 30us away
  net.send(0, 1, 1, [&] { order.push_back(1); });  // 10us away
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ----- tie-order properties (audit/race-detector substrate) -----

// Property: under the FIFO policy, same-timestamp events always pop in
// insertion order, for any interleaving of pushes and pops — and the
// whole pop sequence is identical across re-runs. The model is a
// reference "pop the (time, seq)-minimum" simulation.
TEST(EventQueue, PropertyFifoTieOrderMatchesModelAcrossSeeds) {
  for (std::uint64_t seed : {1ull, 7ull, 1234ull, 0xdecafull}) {
    std::vector<int> first_run;
    for (int rerun = 0; rerun < 2; ++rerun) {
      Rng rng(seed);
      EventQueue q;
      std::vector<int> fired;
      std::vector<std::pair<SimTime, int>> model;  // (time, id) pending
      int next_id = 0;
      SimTime floor = 0;  // pops advance time; later pushes respect it
      for (int step = 0; step < 300; ++step) {
        bool push = q.empty() || rng.below(3) != 0;
        if (push) {
          // Few distinct timestamps on purpose: lots of ties.
          SimTime t = floor + static_cast<SimTime>(10 * rng.below(4));
          int id = next_id++;
          q.push(t, [&fired, id] { fired.push_back(id); },
                 /*actor=*/rng.below(4));
          model.emplace_back(t, id);
        } else {
          SimTime at = 0;
          q.pop(&at)();
          floor = at;
          // Model pop: earliest time, then lowest id (insertion order).
          auto it = std::min_element(model.begin(), model.end());
          ASSERT_EQ(it->first, at);
          ASSERT_EQ(it->second, fired.back());
          model.erase(it);
        }
      }
      while (!q.empty()) {
        q.pop(nullptr)();
        auto it = std::min_element(model.begin(), model.end());
        ASSERT_EQ(it->second, fired.back());
        model.erase(it);
      }
      if (rerun == 0) {
        first_run = fired;
      } else {
        EXPECT_EQ(fired, first_run) << "seed " << seed;
      }
    }
  }
}

TEST(EventQueue, ReversedTieBreakReversesOnlySameTimestampEvents) {
  EventQueue q;
  q.set_tie_break(TieBreak::kReversed);
  std::vector<int> fired;
  q.push(3, [&] { fired.push_back(-1); });
  for (int i = 0; i < 5; ++i) {
    q.push(7, [&fired, i] { fired.push_back(i); });
  }
  q.push(9, [&] { fired.push_back(-2); });
  while (!q.empty()) q.pop(nullptr)();
  EXPECT_EQ(fired, (std::vector<int>{-1, 4, 3, 2, 1, 0, -2}));
}

TEST(EventQueue, TieStatsCountSameTimestampSameActorGroups) {
  EventQueue q;
  // t=5: actor 1 twice (a group), actor 2 once, one untagged event.
  q.push(5, [] {}, 1);
  q.push(5, [] {}, 1);
  q.push(5, [] {}, 2);
  q.push(5, [] {});
  // t=6: actor 1 three times (a second group).
  q.push(6, [] {}, 1);
  q.push(6, [] {}, 1);
  q.push(6, [] {}, 1);
  while (!q.empty()) q.pop(nullptr)();
  TieStats stats = q.tie_stats();
  EXPECT_EQ(stats.groups, 2u);
  EXPECT_EQ(stats.events, 5u);
}

// Mirror of the FIFO property above for the race detector's perturbed
// mode: same-timestamp events pop in REVERSE insertion order, the rest
// still by time, and the pop sequence is identical across re-runs.
TEST(EventQueue, PropertyReversedTieOrderMatchesModelAcrossSeeds) {
  for (std::uint64_t seed : {2ull, 11ull, 4321ull, 0xc0ffeeull}) {
    std::vector<int> first_run;
    for (int rerun = 0; rerun < 2; ++rerun) {
      Rng rng(seed);
      EventQueue q;
      q.set_tie_break(TieBreak::kReversed);
      std::vector<int> fired;
      std::vector<std::pair<SimTime, int>> model;  // (time, id) pending
      int next_id = 0;
      SimTime floor = 0;
      for (int step = 0; step < 300; ++step) {
        bool push = q.empty() || rng.below(3) != 0;
        if (push) {
          SimTime t = floor + static_cast<SimTime>(10 * rng.below(4));
          int id = next_id++;
          q.push(t, [&fired, id] { fired.push_back(id); },
                 /*actor=*/rng.below(4));
          model.emplace_back(t, id);
        } else {
          SimTime at = 0;
          q.pop(&at)();
          floor = at;
          // Model pop: earliest time, then HIGHEST id (reverse order).
          auto it = std::min_element(
              model.begin(), model.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first < b.first
                                          : a.second > b.second;
              });
          ASSERT_EQ(it->first, at);
          ASSERT_EQ(it->second, fired.back());
          model.erase(it);
        }
      }
      while (!q.empty()) {
        q.pop(nullptr)();
        auto it = std::min_element(
            model.begin(), model.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second > b.second;
            });
        ASSERT_EQ(it->second, fired.back());
        model.erase(it);
      }
      if (rerun == 0) {
        first_run = fired;
      } else {
        EXPECT_EQ(fired, first_run) << "seed " << seed;
      }
    }
  }
}

// kShuffled: same-timestamp events pop in a seeded permutation. Time
// order still wins (every pop comes from the earliest pending
// timestamp group), and re-runs with the same seeds are identical —
// the property the lmk-sched explorer's tie-order swarm relies on.
TEST(EventQueue, PropertyShuffledTieOrderPermutesWithinTimeGroups) {
  for (std::uint64_t seed : {3ull, 17ull, 999ull, 0xfeedull}) {
    std::vector<int> first_run;
    for (int rerun = 0; rerun < 2; ++rerun) {
      Rng rng(seed);
      EventQueue q;
      q.set_tie_break(TieBreak::kShuffled);
      q.set_shuffle_seed(seed * 1000003);
      std::vector<int> fired;
      std::map<SimTime, std::multiset<int>> model;  // pending, by time
      int next_id = 0;
      SimTime floor = 0;
      auto check_pop = [&](SimTime at) {
        auto it = model.begin();
        ASSERT_EQ(it->first, at);  // earliest pending timestamp group
        auto hit = it->second.find(fired.back());
        ASSERT_NE(hit, it->second.end())
            << "popped an event from a later time group";
        it->second.erase(hit);
        if (it->second.empty()) model.erase(it);
      };
      for (int step = 0; step < 300; ++step) {
        bool push = q.empty() || rng.below(3) != 0;
        if (push) {
          SimTime t = floor + static_cast<SimTime>(10 * rng.below(4));
          int id = next_id++;
          q.push(t, [&fired, id] { fired.push_back(id); },
                 /*actor=*/rng.below(4));
          model[t].insert(id);
        } else {
          SimTime at = 0;
          q.pop(&at)();
          floor = at;
          check_pop(at);
        }
      }
      while (!q.empty()) {
        SimTime at = 0;
        q.pop(&at)();
        check_pop(at);
      }
      if (rerun == 0) {
        first_run = fired;
      } else {
        EXPECT_EQ(fired, first_run) << "seed " << seed;
      }
    }
  }
}

TEST(EventQueue, ShuffledSeedsAreDeterministicAndDistinct) {
  auto run = [](std::uint64_t shuffle_seed) {
    EventQueue q;
    q.set_tie_break(TieBreak::kShuffled);
    q.set_shuffle_seed(shuffle_seed);
    std::vector<int> fired;
    for (int i = 0; i < 16; ++i) {
      q.push(5, [&fired, i] { fired.push_back(i); });
    }
    for (int i = 16; i < 20; ++i) {
      q.push(9, [&fired, i] { fired.push_back(i); });
    }
    while (!q.empty()) q.pop(nullptr)();
    return fired;
  };
  std::vector<int> a = run(1);
  std::vector<int> b = run(2);
  EXPECT_EQ(a, run(1));  // same seed, same permutation
  EXPECT_NE(a, b);       // different seeds perturb the tie order
  // Both runs drain the t=5 group completely before t=9, whatever the
  // permutation inside each group.
  for (const std::vector<int>& r : {a, b}) {
    std::vector<int> head(r.begin(), r.begin() + 16);
    std::vector<int> tail(r.begin() + 16, r.end());
    std::sort(head.begin(), head.end());
    std::sort(tail.begin(), tail.end());
    EXPECT_EQ(head, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                      11, 12, 13, 14, 15}));
    EXPECT_EQ(tail, (std::vector<int>{16, 17, 18, 19}));
  }
}

// kShuffled draws each tie key at push time, so an event pushed at the
// instant being drained joins the remaining group and may pop next —
// the schedule explorer relies on such a zero-delay event not always
// running after its same-instant peers.
TEST(EventQueue, ShuffledSameInstantPushStaysEligible) {
  int first = 0;
  int last = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    EventQueue q;
    q.set_tie_break(TieBreak::kShuffled);
    q.set_shuffle_seed(seed);
    std::vector<int> fired;
    for (int i = 0; i < 8; ++i) {
      q.push(5, [&fired, i] { fired.push_back(i); });
    }
    q.pop(nullptr)();
    q.push(5, [&fired] { fired.push_back(-1); });  // X
    while (!q.empty()) {
      SimTime at = 0;
      q.pop(&at)();
      EXPECT_EQ(at, 5);
    }
    ASSERT_EQ(fired.size(), 9u);
    first += fired[1] == -1;
    last += fired.back() == -1;
  }
  EXPECT_GT(first, 0);   // X pops right after the push in some runs
  EXPECT_LT(last, 64);   // and not always last
}

TEST(EventQueueDeathTest, SetTieBreakRequiresEmptyQueue) {
  EventQueue q;
  q.push(1, [] {});
  EXPECT_DEATH(q.set_tie_break(TieBreak::kReversed), "empty");
}

TEST(EventQueueDeathTest, SetShuffleSeedRequiresEmptyQueue) {
  EventQueue q;
  q.push(1, [] {});
  EXPECT_DEATH(q.set_shuffle_seed(7), "empty");
}

TEST(EventQueue, ClearThenReuseStartsFresh) {
  EventQueue q;
  q.push(50, [] {}, 1);
  q.push(50, [] {}, 1);
  q.pop(nullptr)();
  q.pop(nullptr)();
  q.push(60, [] {});
  EXPECT_EQ(q.size(), 1u);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  // clear() flushed the (t=50, actor 1) group that was forming.
  TieStats stats = q.tie_stats();
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.events, 2u);
  // Reuse after clear: earlier timestamps than before are fine, and
  // FIFO tie order starts over.
  std::vector<int> fired;
  q.push(10, [&] { fired.push_back(0); });
  q.push(10, [&] { fired.push_back(1); });
  q.push(5, [&] { fired.push_back(-1); });
  while (!q.empty()) q.pop(nullptr)();
  EXPECT_EQ(fired, (std::vector<int>{-1, 0, 1}));
}

TEST(EventQueue, TieStatsMidTimestampSplitsFormingGroup) {
  // Documented behavior: tie_stats() flushes the group forming at the
  // head timestamp, so a mid-timestamp call splits one group in two.
  // Same schedule, quiescent readout: one group of four.
  EventQueue quiescent;
  for (int i = 0; i < 4; ++i) quiescent.push(5, [] {}, 1);
  while (!quiescent.empty()) quiescent.pop(nullptr)();
  TieStats whole = quiescent.tie_stats();
  EXPECT_EQ(whole.groups, 1u);
  EXPECT_EQ(whole.events, 4u);
  // Mid-timestamp readout after two of the four pops: the forming
  // half-group is flushed and counted on its own.
  EventQueue split;
  for (int i = 0; i < 4; ++i) split.push(5, [] {}, 1);
  split.pop(nullptr)();
  split.pop(nullptr)();
  TieStats mid = split.tie_stats();
  EXPECT_EQ(mid.groups, 1u);
  EXPECT_EQ(mid.events, 2u);
  while (!split.empty()) split.pop(nullptr)();
  TieStats total = split.tie_stats();
  EXPECT_EQ(total.groups, 2u);
  EXPECT_EQ(total.events, 4u);
}

// ----- EventClosure storage -----

TEST(EventClosure, SmallCapturesStayInline) {
  int hits = 0;
  std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5;  // 40 bytes + ptr
  EventClosure fn([&hits, a, b, c, d, e] {
    hits += static_cast<int>(a + b + c + d + e);
  });
  EXPECT_TRUE(fn.is_inline());
  fn();
  EXPECT_EQ(hits, 15);
}

TEST(EventClosure, OversizeCapturesFallBackToHeap) {
  std::array<std::uint64_t, 12> big{};  // 96 bytes > kInlineBytes
  big[11] = 7;
  int seen = 0;
  EventClosure fn([&seen, big] { seen = static_cast<int>(big[11]); });
  EXPECT_FALSE(fn.is_inline());
  fn();
  EXPECT_EQ(seen, 7);
}

TEST(EventClosure, MoveTransfersOwnershipAndSupportsMoveOnlyCaptures) {
  auto value = std::make_unique<int>(42);
  int seen = 0;
  EventClosure fn([&seen, value = std::move(value)] { seen = *value; });
  EventClosure moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(moved));
  moved();
  EXPECT_EQ(seen, 42);
  EventClosure assigned;
  assigned = std::move(moved);
  assigned();
  EXPECT_EQ(seen, 42);
}

// ----- network jitter -----

// The jitter perturbation must ROUND to the nearest microsecond:
// truncation floors every sub-unit draw to zero, which silently
// disables jitter on low-latency links and biases the rest low. Pin the
// exact delivery times for a fixed seed by replaying the generator.
TEST(Network, JitterRoundsToNearestMicrosecond) {
  constexpr SimTime kDelay = 10;
  constexpr double kJitter = 0.15;  // kDelay * kJitter = 1.5 < 2
  constexpr std::uint64_t kSeed = 99;
  constexpr int kSends = 64;
  Simulator sim;
  ConstantLatencyModel topo(2, kDelay);
  Network net(sim, topo);
  net.set_jitter(kJitter, kSeed);
  std::vector<SimTime> arrivals;
  for (int i = 0; i < kSends; ++i) {
    net.send(0, 1, 1, [&] { arrivals.push_back(sim.now()); });
  }
  sim.run();
  std::sort(arrivals.begin(), arrivals.end());
  // Replay the jitter stream: offsets are llround(delay * j * u).
  Rng replay(kSeed);
  std::vector<SimTime> expected;
  int rounded_up = 0;
  int truncated_nonzero = 0;
  for (int i = 0; i < kSends; ++i) {
    double perturb = static_cast<double>(kDelay) * kJitter *
                     replay.uniform();
    expected.push_back(kDelay + std::llround(perturb));
    if (std::llround(perturb) > static_cast<SimTime>(perturb)) ++rounded_up;
    if (static_cast<SimTime>(perturb) > 0) ++truncated_nonzero;
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(arrivals, expected);
  // The fixture stays meaningful: for this seed some draws land in
  // [0.5, 1), exactly the ones truncation would zero out.
  EXPECT_GT(rounded_up, 0);
  EXPECT_LT(truncated_nonzero, rounded_up + truncated_nonzero);
}

TEST(Simulator, AuditHookFiresOnCadenceCrossingsAndQuiescence) {
  Simulator sim;
  std::vector<SimTime> audited;
  sim.set_audit(100, [&](SimTime t) { audited.push_back(t); });
  for (SimTime t : {50, 150, 340}) sim.schedule_at(t, [] {});
  sim.run();
  // Crossing t=100 observed at the 150us event, 200 and 300 at the
  // 340us event, plus the quiescence pass at 340.
  EXPECT_EQ(audited, (std::vector<SimTime>{150, 340, 340, 340}));
  EXPECT_EQ(sim.audits_fired(), 4u);
  sim.run();  // nothing ran: no extra quiescence audit
  EXPECT_EQ(sim.audits_fired(), 4u);
}

}  // namespace
}  // namespace lmk
