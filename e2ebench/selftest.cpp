/// \file selftest.cpp
/// Self-tests of the benchmark's own code: seeded inputs are reproducible,
/// the latency summary is right on a fixed sample, and the oracle catches
/// a single flipped byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "bench.hpp"
#include "scenario/engine.hpp"
#include "scenario/result_io.hpp"

namespace e2ebench {
namespace {

void expect_identical(const Inputs& a, const Inputs& b) {
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(wire_request(a.requests[i]), wire_request(b.requests[i]));
    EXPECT_EQ(a.requests[i].expected, b.requests[i].expected);
  }
  EXPECT_EQ(a.stream, b.stream);
  EXPECT_EQ(a.batches, b.batches);
}

TEST(Inputs, SameSeedGivesByteIdenticalRequestStreams) {
  for (const Workload workload :
       {Workload::hot_small, Workload::cold_large, Workload::mixed_churn}) {
    SCOPED_TRACE(std::string(workload_name(workload)));
    expect_identical(make_inputs(workload, 7), make_inputs(workload, 7));
  }
}

TEST(Inputs, DifferentSeedsGiveDifferentStreams) {
  const Inputs a = make_inputs(Workload::mixed_churn, 1);
  const Inputs b = make_inputs(Workload::mixed_churn, 2);
  EXPECT_NE(a.stream, b.stream);
  EXPECT_NE(a.requests.front().body, b.requests.front().body);
}

TEST(Inputs, HotSmallSendsEachSpecHandWrittenAndCanonical) {
  const Inputs inputs = make_inputs(Workload::hot_small, 3);
  ASSERT_EQ(inputs.requests.size(), 2 * inputs.specs.size());
  const std::string& user = inputs.requests[0].body;
  const std::string& canonical = inputs.requests[1].body;
  EXPECT_EQ(user.rfind("//", 0), 0u);
  EXPECT_NE(canonical.rfind("//", 0), 0u);
  // Hand-written bodies leave the defaults out, as examples/specs do.
  EXPECT_LT(user.size(), canonical.size());
  EXPECT_EQ(inputs.requests[0].expected, inputs.requests[1].expected);
}

/// `latencies` completed evenly over `window_s`.
std::vector<Completion> evenly(const std::vector<double>& latencies, double window_s) {
  std::vector<Completion> completions;
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    completions.push_back(
        {window_s * static_cast<double>(i) / static_cast<double>(latencies.size()),
         latencies[i]});
  }
  return completions;
}

TEST(Latency, PercentileAndTailCountOnAFixedSample) {
  std::vector<double> latencies(1000);
  std::iota(latencies.begin(), latencies.end(), 1.0);
  std::reverse(latencies.begin(), latencies.end());
  const LoadSummary summary = summarize(evenly(latencies, 1.0), 1.0);
  EXPECT_EQ(summary.samples, 1000u);
  EXPECT_DOUBLE_EQ(summary.throughput_rps, 1000.0);
  EXPECT_DOUBLE_EQ(summary.p50, 500.5);
  EXPECT_NEAR(summary.p99, 990.01, 1e-9);
  EXPECT_EQ(summary.beyond_p99, 10u);  // 991..1000

  latencies.resize(900);  // 900 samples: only 9 lie beyond p99, too few for a tail
  EXPECT_EQ(summarize(evenly(latencies, 1.0), 1.0).beyond_p99, 9u);

  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 0.5), 1.5);
}

TEST(Latency, AStallMovesSlicesAndWindowsNotTheFigure) {
  // Three seconds, 1000 completions a second at 1 ms, except that the
  // last second stalls: 500 completions at 100 ms.
  std::vector<Completion> completions = evenly(std::vector<double>(2000, 1.0), 2.0);
  for (const Completion& late : evenly(std::vector<double>(500, 100.0), 1.0)) {
    completions.push_back({2.0 + late.done_s, late.latency_ms});
  }
  const LoadSummary summary = summarize(completions, 3.0);
  EXPECT_EQ(summary.slices, 3u);
  EXPECT_DOUBLE_EQ(summary.throughput_rps, 1000.0);  // median of 1000, 1000, 500
  EXPECT_DOUBLE_EQ(summary.p50, 1.0);                // median of 1, 1, 100
  // Windows of 1000 start every 100 completions: 16 of them, of which the
  // 11 that end before the stall have a p99 of 1 ms.
  EXPECT_EQ(summary.windows, 16u);
  EXPECT_DOUBLE_EQ(summary.p99, 1.0);
}

TEST(Oracle, AcceptsTheExpectedBodyAndRejectsOneFlippedByte) {
  const Inputs inputs = make_inputs(Workload::hot_small, 5);
  const Oracle oracle = Oracle::build(inputs);
  const Request& request = inputs.requests.front();
  gf::serve::HttpResponse response;
  response.status = 200;
  const gf::scenario::Engine engine(engine_options(1));
  response.body = response_body(
      gf::scenario::result_to_json(engine.run(inputs.specs[request.expected])));
  response.set_header("X-Cache", "hit");
  EXPECT_EQ(oracle.mismatch(request, response, CacheExpect::hit), "");

  gf::serve::HttpResponse flipped = response;
  flipped.body[flipped.body.size() / 2] ^= 0x01;
  EXPECT_NE(oracle.mismatch(request, flipped, CacheExpect::hit), "");

  gf::serve::HttpResponse wrong_cache = response;
  wrong_cache.set_header("X-Cache", "miss");
  EXPECT_NE(oracle.mismatch(request, wrong_cache, CacheExpect::hit), "");
  EXPECT_EQ(oracle.mismatch(request, wrong_cache, CacheExpect::either), "");

  gf::serve::HttpResponse error = response;
  error.status = 500;
  EXPECT_NE(oracle.mismatch(request, error, CacheExpect::hit), "");
}

}  // namespace
}  // namespace e2ebench
