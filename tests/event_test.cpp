#include <gtest/gtest.h>

#include "core/event_pipeline.hpp"
#include "netsim/event.hpp"

namespace cbde::netsim {
namespace {

// ---------------------------------------------------------------- EventQueue

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(5, [&] { order.push_back(1); });
  q.schedule(5, [&] { order.push_back(2); });
  q.schedule(5, [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CallbacksMayScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) q.schedule_in(10, chain);
  };
  q.schedule(0, chain);
  EXPECT_EQ(q.run(), 5u);
  EXPECT_EQ(q.now(), 40);
}

TEST(EventQueue, PastSchedulingRejected) {
  EventQueue q;
  q.schedule(100, [] {});
  q.run();
  EXPECT_THROW(q.schedule(50, [] {}), std::invalid_argument);
}

TEST(EventQueue, RunUntilHonorsHorizon) {
  EventQueue q;
  int fired = 0;
  q.schedule(10, [&] { ++fired; });
  q.schedule(20, [&] { ++fired; });
  q.schedule(30, [&] { ++fired; });
  q.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunLimitStopsEarly) {
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 10; ++i) q.schedule(i, [&] { ++fired; });
  EXPECT_EQ(q.run(4), 4u);
  EXPECT_EQ(fired, 4);
}

// ---------------------------------------------------------------- FifoResource

TEST(FifoResource, SerializesJobs) {
  FifoResource cpu;
  EXPECT_EQ(cpu.submit(0, 100), 100);
  EXPECT_EQ(cpu.submit(0, 100), 200);   // queued behind the first
  EXPECT_EQ(cpu.submit(500, 100), 600); // idle gap, starts immediately
  EXPECT_EQ(cpu.busy_time(), 300);
  EXPECT_EQ(cpu.jobs(), 3u);
}

TEST(FifoResource, NegativeServiceRejected) {
  FifoResource cpu;
  EXPECT_THROW(cpu.submit(0, -1), std::invalid_argument);
}

// ---------------------------------------------------------------- BitPipe

TEST(BitPipe, TransmissionTimeMatchesCapacity) {
  BitPipe pipe(8e6, 0);  // 8 Mb/s -> 1 byte per microsecond
  EXPECT_EQ(pipe.transmit(0, 1000), 1000);
  EXPECT_EQ(pipe.transmit(0, 1000), 2000);  // FIFO behind the first
  EXPECT_EQ(pipe.bytes_carried(), 2000u);
}

TEST(BitPipe, PropagationAddsFixedDelay) {
  BitPipe pipe(8e6, 50);
  EXPECT_EQ(pipe.transmit(0, 1000), 1050);
}

TEST(BitPipe, UtilizationOverHorizon) {
  BitPipe pipe(8e6, 0);
  pipe.transmit(0, 1000);
  EXPECT_NEAR(pipe.utilization(2000), 0.5, 1e-9);
  EXPECT_EQ(pipe.utilization(0), 0.0);
}

}  // namespace
}  // namespace cbde::netsim

namespace cbde::core {
namespace {

struct EventRig {
  trace::SiteModel site;
  server::OriginServer origin;

  static trace::SiteConfig site_config() {
    trace::SiteConfig config;
    config.host = "www.event.example";
    config.docs_per_category = 8;
    return config;
  }

  EventRig() : site(site_config()) { origin.add_site(site); }

  http::RuleBook rules() const {
    http::RuleBook book;
    book.add_rule(site.config().host, site.partition_rule());
    return book;
  }

  std::vector<trace::Request> workload(double offered_rps, std::size_t n = 300) const {
    trace::WorkloadConfig wconfig;
    wconfig.num_requests = n;
    wconfig.num_users = 60;
    wconfig.mean_interarrival_us = 1e6 / offered_rps;
    return trace::WorkloadGenerator(site, wconfig).generate();
  }
};

TEST(EventPipeline, CompletesEveryRequest) {
  EventRig rig;
  EventPipelineConfig config;
  EventPipeline pipeline(rig.origin, config, rig.rules());
  const auto result = pipeline.run(rig.workload(10));
  EXPECT_EQ(result.completed, 300u);
  EXPECT_GT(result.horizon, 0);
  EXPECT_GT(result.latency_us.mean(), 0.0);
}

TEST(EventPipeline, CbdeUsesFarLessUplink) {
  EventRig rig;
  const auto requests = rig.workload(10);
  EventPipelineConfig direct;
  direct.use_cbde = false;
  EventPipelineConfig cbde;
  cbde.use_cbde = true;
  const auto direct_result = EventPipeline(rig.origin, direct, rig.rules()).run(requests);
  const auto cbde_result = EventPipeline(rig.origin, cbde, rig.rules()).run(requests);
  EXPECT_LT(cbde_result.uplink_bytes, direct_result.uplink_bytes / 3);
}

TEST(EventPipeline, DirectSaturatesUnderLoadCbdeDoesNot) {
  EventRig rig;
  const auto requests = rig.workload(60, 500);  // ~60 req/s of ~40 KB pages > 10 Mb/s
  EventPipelineConfig direct;
  direct.use_cbde = false;
  EventPipelineConfig cbde;
  cbde.use_cbde = true;
  const auto direct_result = EventPipeline(rig.origin, direct, rig.rules()).run(requests);
  const auto cbde_result = EventPipeline(rig.origin, cbde, rig.rules()).run(requests);
  EXPECT_GT(direct_result.uplink_utilization, 0.9);  // pinned at the link
  EXPECT_LT(cbde_result.uplink_utilization, 0.6);
  EXPECT_LT(cbde_result.latency_us.percentile(0.9),
            direct_result.latency_us.percentile(0.9) / 2);
}

TEST(EventPipeline, DeterministicAcrossRuns) {
  EventRig rig;
  const auto requests = rig.workload(20);
  EventPipelineConfig config;
  const auto a = EventPipeline(rig.origin, config, rig.rules()).run(requests);
  const auto b = EventPipeline(rig.origin, config, rig.rules()).run(requests);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.uplink_bytes, b.uplink_bytes);
  EXPECT_DOUBLE_EQ(a.latency_us.mean(), b.latency_us.mean());
  // Pinned: the CPU stage charges the §VI-C delta-server model to every
  // response, so these move if its arithmetic does. The mean is exact.
  EXPECT_EQ(a.horizon, 14379222);
  EXPECT_EQ(a.uplink_bytes, 2187642u);
  EXPECT_EQ(a.latency_us.mean(), 111117.36333333333);
}

}  // namespace
}  // namespace cbde::core
