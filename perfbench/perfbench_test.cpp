// Tests of the benchmark's own pieces: percentile ranks, the ledger
// arithmetic, the relative-load ladder, and TracedSpace's exact forwarding.
#include <gtest/gtest.h>

#include "core/session.h"
#include "harness.h"
#include "traced_space.h"
#include "workloads/server/request_gen.h"
#include "workloads/server/server.h"
#include "workloads/server/types.h"

namespace {

using namespace perfbench;

std::vector<double> one_to(int n) {
  std::vector<double> xs;
  for (int i = n; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  return xs;
}

TEST(Percentile, NearestRankOnOneToHundred) {
  const auto xs = one_to(100);
  EXPECT_EQ(percentile(xs, 0.50), 50);
  EXPECT_EQ(percentile(xs, 0.99), 99);
  EXPECT_EQ(percentile(xs, 1.0), 100);
  EXPECT_EQ(percentile(xs, 0.0), 1);
}

TEST(Percentile, RanksRoundUp) {
  const auto xs = one_to(10);
  EXPECT_EQ(percentile(xs, 0.50), 5);   // rank 5
  EXPECT_EQ(percentile(xs, 0.51), 6);   // rank ceil(5.1) = 6
  EXPECT_EQ(percentile(xs, 0.99), 10);  // rank ceil(9.9) = 10
  EXPECT_EQ(percentile({7}, 0.99), 7);
  EXPECT_EQ(percentile({}, 0.5), 0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(geomean({1, 4}), 2);
}

TEST(Ledger, PredictedIsSumOfCountTimesCost) {
  OpCounts n{1000, 2'000'000, 500, 10, 20};
  OpCosts c{200, 15, 30, 50, 250};
  // 1000*200 + 2e6*15 + 500*30 + 10*50 + 20*250 = 30'220'500 ns
  EXPECT_DOUBLE_EQ(predicted_ms(n, c), 30.2205);
  EXPECT_DOUBLE_EQ(residual_pct(40.0, 30.0), 25.0);
  EXPECT_DOUBLE_EQ(residual_pct(40.0, 50.0), -25.0);
  EXPECT_EQ(residual_pct(0.0, 5.0), 0.0);
}

TEST(Ledger, WeightedCostFollowsOperationCounts) {
  EXPECT_DOUBLE_EQ(weighted_cost({10, 30}, {3, 1}), 15);
  // No part performs the operation: the plain mean.
  EXPECT_DOUBLE_EQ(weighted_cost({10, 30}, {0, 0}), 20);
}

TEST(Ladder, RatesAreSharesOfNativeCapacity) {
  const auto rates = ladder_rates(1'000'000, {4, 10, 20});
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[0], 40'000);
  EXPECT_DOUBLE_EQ(rates[1], 100'000);
  EXPECT_DOUBLE_EQ(rates[2], 200'000);
}

TEST(Ladder, HighestRungWithinTheLimit) {
  const std::vector<Rung> rungs = {
      {4, 10, 0}, {8, 20, 0}, {12, 60, 0}, {16, 90, 0}};
  EXPECT_EQ(slo_load_pct(rungs, 50), 8);
  EXPECT_EQ(slo_load_pct(rungs, 100), 16);
  EXPECT_EQ(slo_load_pct(rungs, 5), 0);
  // A stalled low rung does not hide the load the build sustains above it.
  const std::vector<Rung> stalled = {{4, 900, 0}, {8, 20, 0}, {12, 60, 0}};
  EXPECT_EQ(slo_load_pct(stalled, 50), 8);
}

TEST(Ladder, DropsDisqualifyARung) {
  const std::vector<Rung> rungs = {{4, 10, 0}, {8, 20, 3}, {12, 60, 0}};
  EXPECT_EQ(slo_load_pct(rungs, 50), 4);
}

struct ServeResult {
  std::uint64_t hash = 0;
  polar::RuntimeStats ops;
  SpaceCalls calls;
};

ServeResult serve_stream(bool traced) {
  polar::TypeRegistry reg;
  const auto types = polar::server::register_types(reg);
  polar::server::WorkloadConfig wc;
  wc.requests = 3000;
  const auto wl = polar::server::build_workload(wc);
  polar::Runtime rt(reg, pinned_config(7));
  polar::SessionSpace inner(rt);
  ServeResult r;
  std::vector<std::uint8_t> out;
  const auto run = [&](auto& space) {
    polar::server::Server server(space, types);
    for (std::uint64_t i = 0; i < wl.count(); ++i) {
      if constexpr (requires { space.set_sampling(true); }) {
        space.set_sampling(i % 4 == 0);
      }
      out.clear();
      server.serve(wl.request(i), out);
    }
    r.hash = server.response_hash();
  };
  if (traced) {
    TracedSpace<polar::SessionSpace> space(inner);
    run(space);
    r.calls = space.calls();
  } else {
    run(inner);
  }
  r.ops = rt.stats();
  return r;
}

TEST(TracedSpace, ForwardsExactly) {
  const ServeResult plain = serve_stream(false);
  const ServeResult traced = serve_stream(true);
  EXPECT_EQ(traced.hash, plain.hash);
  EXPECT_TRUE(same_op_counts(traced.ops, plain.ops));
  EXPECT_EQ(violations(traced.ops), 0u);
  // Every runtime operation went through the adapter, cursors included
  // (a snapshot is one member access; the cursor's own loads add none).
  EXPECT_EQ(traced.calls.alloc, traced.ops.allocations);
  EXPECT_EQ(traced.calls.free, traced.ops.frees);
  EXPECT_GT(traced.calls.cursor, 0u);
  EXPECT_GT(traced.calls.prefetch, 0u);
  EXPECT_EQ(traced.calls.field_ptr + traced.calls.load + traced.calls.store +
                traced.calls.cursor,
            traced.ops.member_accesses);
}

TEST(TracedSpace, SpansOnlyWhileSampling) {
  polar::TypeRegistry reg;
  const auto types = polar::server::register_types(reg);
  polar::DirectSpace direct(reg);
  TracedSpace<polar::DirectSpace> space(direct);
  void* p = space.alloc(types.session);
  space.free_object(p, types.session);
  EXPECT_EQ(space.span_ns(), 0u);
  space.set_sampling(true);
  for (int i = 0; i < 100; ++i) {
    p = space.alloc(types.session);
    space.store<std::uint64_t>(p, types.session, 0, 1);
    space.free_object(p, types.session);
  }
  EXPECT_GT(space.span_ns(), 0u);
  EXPECT_EQ(space.calls().alloc, 101u);
  EXPECT_EQ(space.calls().store, 100u);
}

}  // namespace
