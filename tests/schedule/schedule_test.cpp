// Deterministic interleaving exploration (docs/ANALYSIS.md): the scheduler
// itself, the DeltaWorkerPool double-join regression on the reverted-fix
// fixture, and the DeltaServer publish/rebase snapshot protocol. The
// iteration budget honors CBDE_SCHED_BUDGET so CI can pin it.
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pool_model.hpp"
#include "sched.hpp"

namespace cbde::sched {
namespace {

std::size_t schedule_budget() {
  if (const char* env = std::getenv("CBDE_SCHED_BUDGET")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 20000;
}

TEST(Scheduler, RunsEveryTaskToCompletion) {
  Scheduler sched({}, /*preemption_bound=*/3);
  std::vector<int> order;
  SchedMutex mu(sched);
  for (int id = 0; id < 3; ++id) {
    sched.spawn([&sched, &mu, &order, id] {
      sched.point();
      SchedLockGuard lock(mu);
      order.push_back(id);
    });
  }
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(order.size(), 3u);
  EXPECT_FALSE(sched.failed());
}

TEST(Scheduler, ReplayReproducesTheSameInterleaving) {
  const auto trace_of = [](const std::vector<int>& decisions) {
    Scheduler sched(decisions, /*preemption_bound=*/3);
    auto order = std::make_shared<std::string>();
    auto mu = std::make_shared<SchedMutex>(sched);
    for (int id = 0; id < 3; ++id) {
      sched.spawn([&sched, mu, order, id] {
        for (int step = 0; step < 2; ++step) {
          SchedLockGuard lock(*mu);
          *order += static_cast<char>('a' + id);
        }
      });
    }
    EXPECT_TRUE(sched.run());
    return std::make_pair(*order, sched.decisions());
  };
  const auto [first_trace, decisions] = trace_of({});
  const auto [second_trace, replayed] = trace_of(decisions);
  EXPECT_EQ(first_trace, second_trace);
  EXPECT_EQ(decisions, replayed);
}

TEST(Scheduler, DetectsLockOrderDeadlock) {
  const auto setup = [](Scheduler& sched) {
    auto a = std::make_shared<SchedMutex>(sched);
    auto b = std::make_shared<SchedMutex>(sched);
    sched.spawn([&sched, a, b] {
      SchedLockGuard first(*a);
      sched.point();
      SchedLockGuard second(*b);
    });
    sched.spawn([&sched, a, b] {
      SchedLockGuard first(*b);
      sched.point();
      SchedLockGuard second(*a);
    });
  };
  const ExploreResult result = explore(setup, nullptr, schedule_budget());
  ASSERT_TRUE(result.failure_found);
  EXPECT_NE(result.failure.find("deadlock"), std::string::npos) << result.failure;
  EXPECT_EQ(replay(setup, result.failing_decisions), result.failure);
}

// The PR 3 regression: with the single-joiner handshake reverted, a second
// concurrent shutdown() returns as soon as it sees stopping_ set — before
// the first caller joined the worker — violating the pool's contract.
TEST(ScheduleExplorer, RefindsDoubleJoinRaceOnRevertedFixture) {
  const auto setup = [](Scheduler& sched) {
    auto pool = std::make_shared<MiniPool<false>>(sched);
    sched.spawn([pool] { pool->worker(); });
    sched.spawn([pool] {
      pool->submit();
      pool->shutdown();
    });
    sched.spawn([pool] { pool->shutdown(); });
  };
  const ExploreResult result = explore(setup, nullptr, schedule_budget());
  ASSERT_TRUE(result.failure_found)
      << "explored " << result.schedules_run << " schedules without refinding the race";
  EXPECT_NE(result.failure.find("shutdown returned while a worker"), std::string::npos)
      << result.failure;
  // The failing schedule is a replayable witness, not a flake.
  EXPECT_EQ(replay(setup, result.failing_decisions), result.failure);
}

// The current tree's protocol (join_done_ + join_done_cv_): every schedule
// within the bounded space upholds the shutdown contract.
TEST(ScheduleExplorer, FixedShutdownHandshakeRunsClean) {
  const auto setup = [](Scheduler& sched) {
    auto pool = std::make_shared<MiniPool<true>>(sched);
    sched.spawn([pool] { pool->worker(); });
    sched.spawn([pool] {
      pool->submit();
      pool->shutdown();
    });
    sched.spawn([pool] { pool->shutdown(); });
  };
  const ExploreResult result = explore(setup, nullptr, schedule_budget());
  EXPECT_FALSE(result.failure_found) << result.failure;
  EXPECT_TRUE(result.exhausted)
      << "budget " << schedule_budget() << " too small: ran "
      << result.schedules_run << " schedules without exhausting the space";
}

// published_base() without the shared_ptr keepalive: a rebase between the
// snapshot and the caller's read retires the encoder the view points into.
TEST(ScheduleExplorer, FindsDanglingSnapshotWithoutKeepalive) {
  const auto setup = [](Scheduler& sched) {
    auto model = std::make_shared<SnapshotModel<false>>(sched);
    sched.spawn([model] { model->read_published(); });
    sched.spawn([model] { model->rebase(); });
  };
  const ExploreResult result = explore(setup, nullptr, schedule_budget());
  ASSERT_TRUE(result.failure_found)
      << "explored " << result.schedules_run << " schedules without finding the dangle";
  EXPECT_NE(result.failure.find("dangling base snapshot"), std::string::npos)
      << result.failure;
  EXPECT_EQ(replay(setup, result.failing_decisions), result.failure);
}

// The current tree (PublishedBase::keepalive): the snapshot pins the
// encoder, so every interleaving of readers and rebases is safe.
TEST(ScheduleExplorer, KeepaliveSnapshotRunsClean) {
  const auto setup = [](Scheduler& sched) {
    auto model = std::make_shared<SnapshotModel<true>>(sched);
    sched.spawn([model] { model->read_published(); });
    sched.spawn([model] { model->rebase(); });
    sched.spawn([model] { model->rebase(); });
  };
  const ExploreResult result = explore(setup, nullptr, schedule_budget());
  EXPECT_FALSE(result.failure_found) << result.failure;
  EXPECT_TRUE(result.exhausted)
      << "budget " << schedule_budget() << " too small: ran "
      << result.schedules_run << " schedules without exhausting the space";
}

}  // namespace
}  // namespace cbde::sched
