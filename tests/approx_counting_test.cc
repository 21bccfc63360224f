#include "butterfly/approx_counting.h"

#include <cmath>

#include <gtest/gtest.h>

#include "butterfly/butterfly_counting.h"
#include "graph/generators.h"
#include "test_util.h"

namespace bccs {
namespace {

using testing::MaskOf;

struct BipartiteSetup {
  LabeledGraph g;
  std::vector<VertexId> left, right;
  std::vector<char> in_left, in_right;

  BipartiteSetup(std::size_t nl, std::size_t nr, double p, std::uint64_t seed) {
    g = GenerateRandomBipartite(nl, nr, p, seed);
    for (VertexId v = 0; v < nl; ++v) left.push_back(v);
    for (VertexId v = static_cast<VertexId>(nl); v < nl + nr; ++v) right.push_back(v);
    in_left = MaskOf(g, left);
    in_right = MaskOf(g, right);
  }
};

TEST(ApproxButterflyTest, ExactOnCompleteBipartite) {
  // K_{4,4}: every left pair shares 4 common neighbors, so every sample
  // contributes the same value and the estimate is exact.
  BipartiteSetup s(4, 4, 1.0, 1);
  auto exact = CountButterflies(s.g, s.left, s.right, s.in_left, s.in_right);
  ApproxButterflyOptions opts;
  opts.samples = 50;
  double estimate =
      EstimateTotalButterflies(s.g, s.left, s.right, s.in_left, s.in_right, opts);
  EXPECT_DOUBLE_EQ(estimate, static_cast<double>(exact.total));
}

TEST(ApproxButterflyTest, ZeroOnButterflyFree) {
  // A perfect matching has no butterflies; the estimator must return 0.
  std::vector<Edge> edges = {{0, 3}, {1, 4}, {2, 5}};
  LabeledGraph g = LabeledGraph::FromEdges(6, std::move(edges), {0, 0, 0, 1, 1, 1});
  std::vector<VertexId> left = {0, 1, 2}, right = {3, 4, 5};
  double estimate = EstimateTotalButterflies(g, left, right, MaskOf(g, left),
                                             MaskOf(g, right), {});
  EXPECT_DOUBLE_EQ(estimate, 0.0);
}

TEST(ApproxButterflyTest, DegenerateSides) {
  BipartiteSetup s(1, 5, 1.0, 2);
  EXPECT_DOUBLE_EQ(
      EstimateTotalButterflies(s.g, s.left, s.right, s.in_left, s.in_right, {}), 0.0);
}

class ApproxButterflyAccuracyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApproxButterflyAccuracyTest, TotalWithinTolerance) {
  BipartiteSetup s(40, 40, 0.25, GetParam() + 11);
  auto exact = CountButterflies(s.g, s.left, s.right, s.in_left, s.in_right);
  ASSERT_GT(exact.total, 0u);
  ApproxButterflyOptions opts;
  opts.samples = 20000;
  opts.seed = GetParam();
  double estimate =
      EstimateTotalButterflies(s.g, s.left, s.right, s.in_left, s.in_right, opts);
  double rel_error =
      std::abs(estimate - static_cast<double>(exact.total)) / static_cast<double>(exact.total);
  EXPECT_LT(rel_error, 0.25) << "estimate " << estimate << " exact " << exact.total;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproxButterflyAccuracyTest,
                         ::testing::Range<std::uint64_t>(0, 6));

TEST(ApproxButterflyTest, RespectsMasks) {
  BipartiteSetup s(10, 10, 1.0, 3);
  // Kill all left vertices but two: the exact total becomes C(10,2) = 45
  // butterflies... with 2 left alive: C(2,2)*C(10,2) = 45.
  for (VertexId v = 2; v < 10; ++v) s.in_left[v] = 0;
  auto exact = CountButterflies(s.g, s.left, s.right, s.in_left, s.in_right);
  ApproxButterflyOptions opts;
  opts.samples = 100;
  double estimate =
      EstimateTotalButterflies(s.g, s.left, s.right, s.in_left, s.in_right, opts);
  EXPECT_DOUBLE_EQ(estimate, static_cast<double>(exact.total));
}

}  // namespace
}  // namespace bccs
