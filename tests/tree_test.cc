// Tree builders over the shared per-fit FeatureOrder must grow exactly the
// trees the per-node-sort builders grew: same nodes, same bits, same RNG
// consumption. The per-node-sort builders live on here as the oracle.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ml/learner.h"
#include "ml/tree.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kgpip::ml {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the builders that sorted (value, row) pairs at every node.
// ---------------------------------------------------------------------------
namespace oracle {

std::vector<int> SampleFeatures(size_t num_features, double max_features,
                                Rng* rng) {
  std::vector<int> all(num_features);
  std::iota(all.begin(), all.end(), 0);
  if (max_features <= 0.0 || max_features >= 1.0) return all;
  size_t keep = std::max<size_t>(
      1, static_cast<size_t>(std::lround(
             max_features * static_cast<double>(num_features))));
  rng->Shuffle(all);
  all.resize(keep);
  return all;
}

struct GradientSplit {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
  std::vector<size_t> left_rows;
  std::vector<size_t> right_rows;
};

double LeafObjective(double sum_g, double sum_h, double lambda) {
  return sum_g * sum_g / (sum_h + lambda);
}

struct GradientBuilder {
  const FeatureMatrix* x;
  const std::vector<double>* grad;
  const std::vector<double>* hess;
  TreeParams params;
  Rng* rng;
  std::vector<TreeNode>* nodes;

  int Build(const std::vector<size_t>& rows, int depth) {
    double sum_g = 0.0;
    double sum_h = 0.0;
    for (size_t r : rows) {
      sum_g += (*grad)[r];
      sum_h += (*hess)[r];
    }
    const double leaf_value = -sum_g / (sum_h + params.lambda);
    const bool can_split =
        depth < params.max_depth &&
        rows.size() >= static_cast<size_t>(params.min_samples_split);
    GradientSplit best;
    if (can_split) best = FindSplit(rows, sum_g, sum_h);
    int node_index = static_cast<int>(nodes->size());
    nodes->push_back(TreeNode{});
    if (best.feature < 0) {
      (*nodes)[node_index].value = leaf_value;
      return node_index;
    }
    (*nodes)[node_index].feature = best.feature;
    (*nodes)[node_index].threshold = best.threshold;
    int left = Build(best.left_rows, depth + 1);
    int right = Build(best.right_rows, depth + 1);
    (*nodes)[node_index].left = left;
    (*nodes)[node_index].right = right;
    return node_index;
  }

  GradientSplit FindSplit(const std::vector<size_t>& rows, double sum_g,
                          double sum_h) {
    GradientSplit best;
    const double parent_obj = LeafObjective(sum_g, sum_h, params.lambda);
    std::vector<int> features =
        SampleFeatures(x->cols, params.max_features, rng);
    const size_t min_leaf = static_cast<size_t>(params.min_samples_leaf);
    std::vector<std::pair<double, size_t>> sorted;
    sorted.reserve(rows.size());
    for (int f : features) {
      sorted.clear();
      for (size_t r : rows) sorted.emplace_back(x->At(r, f), r);
      std::sort(sorted.begin(), sorted.end());
      if (sorted.front().first == sorted.back().first) continue;
      if (params.random_thresholds) {
        double lo = sorted.front().first;
        double hi = sorted.back().first;
        double threshold = rng->Uniform(lo, hi);
        double left_g = 0.0;
        double left_h = 0.0;
        size_t left_count = 0;
        for (const auto& [v, r] : sorted) {
          if (v <= threshold) {
            left_g += (*grad)[r];
            left_h += (*hess)[r];
            ++left_count;
          }
        }
        if (left_count < min_leaf || rows.size() - left_count < min_leaf) {
          continue;
        }
        double gain = LeafObjective(left_g, left_h, params.lambda) +
                      LeafObjective(sum_g - left_g, sum_h - left_h,
                                    params.lambda) -
                      parent_obj;
        if (gain > best.gain) {
          best.gain = gain;
          best.feature = f;
          best.threshold = threshold;
        }
      } else {
        double left_g = 0.0;
        double left_h = 0.0;
        for (size_t i = 0; i + 1 < sorted.size(); ++i) {
          left_g += (*grad)[sorted[i].second];
          left_h += (*hess)[sorted[i].second];
          if (sorted[i].first == sorted[i + 1].first) continue;
          size_t left_count = i + 1;
          if (left_count < min_leaf ||
              sorted.size() - left_count < min_leaf) {
            continue;
          }
          double gain = LeafObjective(left_g, left_h, params.lambda) +
                        LeafObjective(sum_g - left_g, sum_h - left_h,
                                      params.lambda) -
                        parent_obj;
          if (gain > best.gain) {
            best.gain = gain;
            best.feature = f;
            best.threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
          }
        }
      }
    }
    if (best.feature >= 0) {
      for (size_t r : rows) {
        if (x->At(r, best.feature) <= best.threshold) {
          best.left_rows.push_back(r);
        } else {
          best.right_rows.push_back(r);
        }
      }
      if (best.left_rows.size() < min_leaf ||
          best.right_rows.size() < min_leaf) {
        best.feature = -1;
      }
    }
    return best;
  }
};

struct GiniBuilder {
  const FeatureMatrix* x;
  const std::vector<double>* y;
  int num_classes;
  TreeParams params;
  Rng* rng;
  std::vector<TreeNode>* nodes;

  static double Gini(const std::vector<double>& counts, double total) {
    if (total <= 0.0) return 0.0;
    double g = 1.0;
    for (double c : counts) {
      double p = c / total;
      g -= p * p;
    }
    return g;
  }

  int Build(const std::vector<size_t>& rows, int depth) {
    std::vector<double> counts(num_classes, 0.0);
    for (size_t r : rows) {
      counts[static_cast<size_t>((*y)[r])] += 1.0;
    }
    int majority = 0;
    bool pure = false;
    for (int c = 1; c < num_classes; ++c) {
      if (counts[c] > counts[majority]) majority = c;
    }
    pure = counts[majority] == static_cast<double>(rows.size());
    int node_index = static_cast<int>(nodes->size());
    nodes->push_back(TreeNode{});
    const bool can_split =
        !pure && depth < params.max_depth &&
        rows.size() >= static_cast<size_t>(params.min_samples_split);
    if (can_split) {
      auto [feature, threshold, gain] = FindSplit(rows, counts);
      if (feature >= 0 && gain > 1e-12) {
        std::vector<size_t> left_rows, right_rows;
        for (size_t r : rows) {
          if (x->At(r, feature) <= threshold) {
            left_rows.push_back(r);
          } else {
            right_rows.push_back(r);
          }
        }
        const size_t min_leaf = static_cast<size_t>(params.min_samples_leaf);
        if (left_rows.size() >= min_leaf && right_rows.size() >= min_leaf) {
          (*nodes)[node_index].feature = feature;
          (*nodes)[node_index].threshold = threshold;
          int left = Build(left_rows, depth + 1);
          int right = Build(right_rows, depth + 1);
          (*nodes)[node_index].left = left;
          (*nodes)[node_index].right = right;
          return node_index;
        }
      }
    }
    (*nodes)[node_index].value = static_cast<double>(majority);
    return node_index;
  }

  std::tuple<int, double, double> FindSplit(
      const std::vector<size_t>& rows, const std::vector<double>& counts) {
    const double total = static_cast<double>(rows.size());
    const double parent_gini = Gini(counts, total);
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_gain = 0.0;
    std::vector<int> features =
        SampleFeatures(x->cols, params.max_features, rng);
    std::vector<std::pair<double, size_t>> sorted;
    std::vector<double> left_counts(num_classes, 0.0);
    const size_t min_leaf = static_cast<size_t>(params.min_samples_leaf);
    for (int f : features) {
      sorted.clear();
      for (size_t r : rows) sorted.emplace_back(x->At(r, f), r);
      std::sort(sorted.begin(), sorted.end());
      if (sorted.front().first == sorted.back().first) continue;
      std::fill(left_counts.begin(), left_counts.end(), 0.0);
      if (params.random_thresholds) {
        double threshold =
            rng->Uniform(sorted.front().first, sorted.back().first);
        double left_total = 0.0;
        for (const auto& [v, r] : sorted) {
          if (v <= threshold) {
            left_counts[static_cast<size_t>((*y)[r])] += 1.0;
            left_total += 1.0;
          }
        }
        if (left_total < static_cast<double>(min_leaf) ||
            total - left_total < static_cast<double>(min_leaf)) {
          continue;
        }
        std::vector<double> right_counts(num_classes);
        for (int c = 0; c < num_classes; ++c) {
          right_counts[c] = counts[c] - left_counts[c];
        }
        double gain = parent_gini -
                      (left_total / total) * Gini(left_counts, left_total) -
                      ((total - left_total) / total) *
                          Gini(right_counts, total - left_total);
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold = threshold;
        }
      } else {
        double left_total = 0.0;
        for (size_t i = 0; i + 1 < sorted.size(); ++i) {
          left_counts[static_cast<size_t>((*y)[sorted[i].second])] += 1.0;
          left_total += 1.0;
          if (sorted[i].first == sorted[i + 1].first) continue;
          if (left_total < static_cast<double>(min_leaf) ||
              total - left_total < static_cast<double>(min_leaf)) {
            continue;
          }
          double right_total = total - left_total;
          double left_gini = Gini(left_counts, left_total);
          double right_gini = 1.0;
          {
            double g = 1.0;
            for (int c = 0; c < num_classes; ++c) {
              double p = (counts[c] - left_counts[c]) / right_total;
              g -= p * p;
            }
            right_gini = g;
          }
          double gain = parent_gini - (left_total / total) * left_gini -
                        (right_total / total) * right_gini;
          if (gain > best_gain) {
            best_gain = gain;
            best_feature = f;
            best_threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
          }
        }
      }
    }
    return {best_feature, best_threshold, best_gain};
  }
};

std::vector<TreeNode> FitGradientTree(const FeatureMatrix& x,
                                      const std::vector<double>& grad,
                                      const std::vector<double>& hess,
                                      const std::vector<size_t>& rows,
                                      const TreeParams& params, Rng* rng) {
  std::vector<TreeNode> nodes;
  if (rows.empty()) return nodes;
  GradientBuilder builder{&x, &grad, &hess, params, rng, &nodes};
  builder.Build(rows, 0);
  return nodes;
}

std::vector<TreeNode> FitClassificationTree(const FeatureMatrix& x,
                                            const std::vector<double>& y,
                                            int num_classes,
                                            const std::vector<size_t>& rows,
                                            const TreeParams& params,
                                            Rng* rng) {
  std::vector<TreeNode> nodes;
  if (rows.empty()) return nodes;
  GiniBuilder builder{&x, &y, num_classes, params, rng, &nodes};
  builder.Build(rows, 0);
  return nodes;
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------------

/// A seeded table whose columns cover the cases a presorted order must
/// reproduce: continuous values, heavy ties, a constant column, signed
/// zeros (equal under <, so ties broken by row), and a low-cardinality
/// column with a single outlier.
struct Problem {
  FeatureMatrix x;
  std::vector<double> y;       // class index in [0, num_classes)
  std::vector<double> target;  // regression target
  int num_classes = 3;
};

Problem MakeProblem(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.x = FeatureMatrix(rows, 6);
  p.y.resize(rows);
  p.target.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    const double a = rng.Normal();
    const double tied = static_cast<double>(rng.UniformInt(4));
    p.x.At(r, 0) = a;
    p.x.At(r, 1) = tied;
    p.x.At(r, 2) = 7.0;
    p.x.At(r, 3) = rng.Bernoulli(0.5) ? 0.0 : (rng.Bernoulli(0.5) ? -0.0 : 1.0);
    p.x.At(r, 4) = r == rows / 2 ? 100.0 : static_cast<double>(r % 2);
    p.x.At(r, 5) = std::round(rng.Uniform(0.0, 10.0) * 4.0) / 4.0;
    const double signal = a + 0.5 * tied - p.x.At(r, 3) + 0.2 * rng.Normal();
    p.y[r] = signal < -0.2 ? 0.0 : (signal < 1.2 ? 1.0 : 2.0);
    p.target[r] = 3.0 * a + tied * tied - 2.0 * p.x.At(r, 5) + rng.Normal();
  }
  return p;
}

std::vector<size_t> AllRows(size_t n) {
  std::vector<size_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

std::vector<size_t> BootstrapRows(size_t n, Rng* rng) {
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = rng->UniformInt(n);
  return rows;
}

/// The row subsample GbdtLearner draws per round (lgbm: subsample 0.9).
std::vector<size_t> SubsampleRows(size_t n, double subsample, Rng* rng) {
  std::vector<size_t> rows;
  for (size_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(subsample)) rows.push_back(i);
  }
  return rows;
}

void ExpectSameNodes(const std::vector<TreeNode>& want, const Tree& got) {
  ASSERT_EQ(want.size(), got.nodes().size());
  for (size_t i = 0; i < want.size(); ++i) {
    const TreeNode& a = want[i];
    const TreeNode& b = got.nodes()[i];
    EXPECT_EQ(a.feature, b.feature) << "node " << i;
    EXPECT_EQ(a.left, b.left) << "node " << i;
    EXPECT_EQ(a.right, b.right) << "node " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.threshold),
              std::bit_cast<uint64_t>(b.threshold))
        << "node " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.value),
              std::bit_cast<uint64_t>(b.value))
        << "node " << i;
  }
}

/// Fits one gradient tree with the oracle and with the presorted builder
/// from identically seeded streams; trees and RNG positions must agree.
void CheckGradient(const Problem& p, const std::vector<double>& grad,
                   const std::vector<double>& hess,
                   const std::vector<size_t>& rows, const TreeParams& params,
                   uint64_t seed) {
  Rng oracle_rng(seed);
  Rng rng(seed);
  std::vector<TreeNode> want =
      oracle::FitGradientTree(p.x, grad, hess, rows, params, &oracle_rng);
  Tree got = FitGradientTree(p.x, SortFeatures(p.x), grad, hess, rows,
                             params, &rng);
  ExpectSameNodes(want, got);
  EXPECT_EQ(oracle_rng.Next(), rng.Next()) << "RNG streams diverged";
}

void CheckGini(const Problem& p, const std::vector<size_t>& rows,
               const TreeParams& params, uint64_t seed) {
  Rng oracle_rng(seed);
  Rng rng(seed);
  std::vector<TreeNode> want = oracle::FitClassificationTree(
      p.x, p.y, p.num_classes, rows, params, &oracle_rng);
  Tree got = FitClassificationTree(p.x, SortFeatures(p.x), p.y,
                                   p.num_classes, rows, params, &rng);
  ExpectSameNodes(want, got);
  EXPECT_EQ(oracle_rng.Next(), rng.Next()) << "RNG streams diverged";
}

/// Squared-error gradients (h = 1) and softmax-like gradients with
/// varying hessians, so both accumulation paths are exercised.
std::pair<std::vector<double>, std::vector<double>> Gradients(
    const Problem& p, bool unit_hessian) {
  std::vector<double> grad(p.x.rows);
  std::vector<double> hess(p.x.rows, 1.0);
  for (size_t i = 0; i < p.x.rows; ++i) {
    if (unit_hessian) {
      grad[i] = -p.target[i];
    } else {
      const double prob = 1.0 / (1.0 + std::exp(-0.3 * p.target[i]));
      grad[i] = prob - (p.y[i] == 1.0 ? 1.0 : 0.0);
      hess[i] = std::max(prob * (1.0 - prob), 1e-6);
    }
  }
  return {grad, hess};
}

TreeParams DeepParams() {
  TreeParams params;
  params.max_depth = 12;
  params.min_samples_leaf = 1;
  params.min_samples_split = 2;
  params.lambda = 0.0;
  return params;
}

// ---------------------------------------------------------------------------
// Oracle equivalence.
// ---------------------------------------------------------------------------

TEST(TreeOracleTest, TiesAndConstantColumnsMatch) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Problem p = MakeProblem(160, seed);
    for (bool unit : {true, false}) {
      auto [grad, hess] = Gradients(p, unit);
      TreeParams params = DeepParams();
      params.lambda = unit ? 0.0 : 1.0;
      CheckGradient(p, grad, hess, AllRows(p.x.rows), params, seed);
    }
    CheckGini(p, AllRows(p.x.rows), DeepParams(), seed);
  }
}

TEST(TreeOracleTest, OnlyTiedAndConstantFeaturesMatch) {
  // Drop the continuous columns: every cut point sits between long runs of
  // equal values, and the constant column is never splittable.
  Problem p = MakeProblem(120, 4);
  for (size_t r = 0; r < p.x.rows; ++r) {
    p.x.At(r, 0) = p.x.At(r, 1);
    p.x.At(r, 5) = 7.0;
  }
  auto [grad, hess] = Gradients(p, true);
  CheckGradient(p, grad, hess, AllRows(p.x.rows), DeepParams(), 4);
  CheckGini(p, AllRows(p.x.rows), DeepParams(), 4);
}

TEST(TreeOracleTest, BootstrapRowsWithDuplicatesMatch) {
  for (uint64_t seed : {5u, 6u, 7u}) {
    Problem p = MakeProblem(150, seed);
    Rng draw(seed * 31);
    std::vector<size_t> rows = BootstrapRows(p.x.rows, &draw);
    auto [grad, hess] = Gradients(p, true);
    CheckGradient(p, grad, hess, rows, DeepParams(), seed);
    CheckGini(p, rows, DeepParams(), seed);
  }
}

TEST(TreeOracleTest, FeatureSubsamplingConsumesTheSameStream) {
  for (double max_features : {0.2, 0.5, 0.8}) {
    Problem p = MakeProblem(140, 8);
    Rng draw(9);
    std::vector<size_t> rows = BootstrapRows(p.x.rows, &draw);
    TreeParams params = DeepParams();
    params.max_features = max_features;
    auto [grad, hess] = Gradients(p, false);
    params.lambda = 1.0;
    CheckGradient(p, grad, hess, rows, params, 10);
    params.lambda = 0.0;
    CheckGini(p, rows, params, 11);
  }
}

TEST(TreeOracleTest, RandomThresholdsMatch) {
  for (uint64_t seed : {12u, 13u}) {
    Problem p = MakeProblem(130, seed);
    TreeParams params = DeepParams();
    params.random_thresholds = true;
    params.max_features = 0.5;
    auto [grad, hess] = Gradients(p, true);
    CheckGradient(p, grad, hess, AllRows(p.x.rows), params, seed);
    CheckGini(p, AllRows(p.x.rows), params, seed);
    params.max_features = 1.0;
    params.min_samples_leaf = 5;
    CheckGradient(p, grad, hess, AllRows(p.x.rows), params, seed + 100);
    CheckGini(p, AllRows(p.x.rows), params, seed + 100);
  }
}

TEST(TreeOracleTest, MinSamplesLeafEdgesMatch) {
  Problem p = MakeProblem(90, 14);
  auto [grad, hess] = Gradients(p, true);
  // leaf 0 accepts every cut; split <= 1 lets single-row nodes look for
  // a split (and, with max_features < 1, draw a feature sample); split <
  // leaf lets nodes try splits that the leaf check then rejects; leaf >
  // rows / 2 forbids every split.
  const std::vector<std::pair<int, int>> cases = {
      {0, 0}, {0, 2}, {1, 1}, {3, 2}, {7, 3}, {20, 40}, {46, 2}, {200, 2}};
  for (double max_features : {1.0, 0.5}) {
    for (auto [leaf, split] : cases) {
      TreeParams params = DeepParams();
      params.min_samples_leaf = leaf;
      params.min_samples_split = split;
      params.max_features = max_features;
      SCOPED_TRACE(testing::Message() << "leaf " << leaf << " split "
                                      << split << " features "
                                      << max_features);
      CheckGradient(p, grad, hess, AllRows(p.x.rows), params, 15);
      CheckGini(p, AllRows(p.x.rows), params, 15);
    }
  }
}

TEST(TreeOracleTest, LgbmSubsampledRowsMatch) {
  // lgbm's preset: depth 5, leaf 3, split 6, lambda 1, subsample 0.9.
  Problem p = MakeProblem(200, 16);
  Rng draw(17);
  TreeParams params;
  params.max_depth = 5;
  params.min_samples_leaf = 3;
  params.min_samples_split = 6;
  params.lambda = 1.0;
  auto [grad, hess] = Gradients(p, false);
  for (int round = 0; round < 4; ++round) {
    std::vector<size_t> rows = SubsampleRows(p.x.rows, 0.9, &draw);
    CheckGradient(p, grad, hess, rows, params, 18 + round);
  }
}

TEST(TreeOracleTest, SortFeaturesOrdersByValueThenRow) {
  Problem p = MakeProblem(64, 19);
  FeatureOrder order = SortFeatures(p.x);
  ASSERT_EQ(order.rows, p.x.rows);
  ASSERT_EQ(order.index.size(), p.x.rows * p.x.cols);
  for (size_t f = 0; f < p.x.cols; ++f) {
    const uint32_t* col = order.Column(f);
    std::vector<uint32_t> seen(col, col + p.x.rows);
    std::sort(seen.begin(), seen.end());
    for (size_t i = 0; i < seen.size(); ++i) ASSERT_EQ(seen[i], i);
    for (size_t i = 0; i + 1 < p.x.rows; ++i) {
      const auto a = std::make_pair(p.x.At(col[i], f), col[i]);
      const auto b = std::make_pair(p.x.At(col[i + 1], f), col[i + 1]);
      EXPECT_LT(a, b) << "feature " << f << " position " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Forest trees share one FeatureOrder across pool threads.
// ---------------------------------------------------------------------------

LabeledData ForestData(TaskType task, uint64_t seed) {
  Problem p = MakeProblem(180, seed);
  LabeledData data;
  data.x = p.x;
  data.task = task;
  if (IsClassification(task)) {
    data.y = p.y;
    data.num_classes = p.num_classes;
  } else {
    data.y = p.target;
  }
  return data;
}

std::vector<double> FitForestAt(int threads, const std::string& name,
                                const LabeledData& data) {
  util::ThreadPool::Configure(threads);
  auto learner = CreateLearner(name, data.task, HyperParams{}, 20);
  EXPECT_TRUE(learner.ok());
  if (!learner.ok()) return {};
  EXPECT_TRUE((*learner)->Fit(data).ok());
  return (*learner)->Predict(data.x);
}

TEST(TreeForestTest, ForestIsIdenticalAtOneAndFourThreads) {
  for (const char* name : {"random_forest", "extra_trees"}) {
    for (TaskType task : {TaskType::kMultiClassification,
                          TaskType::kRegression}) {
      LabeledData data = ForestData(task, 21);
      std::vector<double> one = FitForestAt(1, name, data);
      std::vector<double> four = FitForestAt(4, name, data);
      ASSERT_EQ(one.size(), four.size());
      for (size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(one[i]),
                  std::bit_cast<uint64_t>(four[i]))
            << name << " row " << i;
      }
    }
  }
  util::ThreadPool::Configure(0);
}

}  // namespace
}  // namespace kgpip::ml
