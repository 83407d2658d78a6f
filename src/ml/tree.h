#ifndef KGPIP_ML_TREE_H_
#define KGPIP_ML_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/learner.h"
#include "util/rng.h"

namespace kgpip::ml {

/// One node of a binary decision tree, stored in a flat vector.
struct TreeNode {
  int feature = -1;        // -1 marks a leaf
  double threshold = 0.0;  // go left when x[feature] <= threshold
  int left = -1;
  int right = -1;
  double value = 0.0;      // leaf prediction (class index or score)
};

/// Shared tree-construction knobs.
struct TreeParams {
  int max_depth = 10;
  int min_samples_leaf = 2;
  int min_samples_split = 4;
  /// Fraction of features examined per split (<=0 or >=1: all).
  double max_features = 1.0;
  /// Extra-trees style: draw one random threshold per feature instead of
  /// scanning every cut point.
  bool random_thresholds = false;
  /// L2 regularization on leaf values (gradient trees only).
  double lambda = 1.0;
};

/// A fitted tree; Evaluate routes a row to its leaf value.
class Tree {
 public:
  double Evaluate(const double* row) const;
  const std::vector<TreeNode>& nodes() const { return nodes_; }
  bool empty() const { return nodes_.empty(); }

  std::vector<TreeNode>& mutable_nodes() { return nodes_; }

 private:
  std::vector<TreeNode> nodes_;
};

/// Every feature's rows sorted by (value, row), computed once per learner
/// fit and shared read-only by every tree that fit grows (the presorted
/// column layout of XGBoost's exact greedy split finder).
struct FeatureOrder {
  size_t rows = 0;
  /// Feature f's sorted rows are index[f * rows, (f + 1) * rows).
  std::vector<uint32_t> index;

  const uint32_t* Column(size_t f) const { return index.data() + f * rows; }
};

FeatureOrder SortFeatures(const FeatureMatrix& x);

/// Fits a gradient tree in the XGBoost formulation: each row carries a
/// gradient g_i and hessian h_i; leaves predict -sum(g)/(sum(h)+lambda) and
/// splits maximize the matching gain. With g = -(residual) and h = 1 this
/// reduces to a plain least-squares regression tree predicting the mean.
/// `order` must be SortFeatures(x); `rows` may repeat a row (bootstrap).
Tree FitGradientTree(const FeatureMatrix& x, const FeatureOrder& order,
                     const std::vector<double>& grad,
                     const std::vector<double>& hess,
                     const std::vector<size_t>& rows,
                     const TreeParams& params, Rng* rng);

/// Fits a Gini-impurity classification tree whose leaves predict the
/// majority class index. `order` and `rows` as for FitGradientTree.
Tree FitClassificationTree(const FeatureMatrix& x, const FeatureOrder& order,
                           const std::vector<double>& y, int num_classes,
                           const std::vector<size_t>& rows,
                           const TreeParams& params, Rng* rng);

/// Single CART decision tree exposed through the Learner interface.
class DecisionTreeLearner : public Learner {
 public:
  DecisionTreeLearner(TaskType task, const HyperParams& params,
                      uint64_t seed);

  Status Fit(const LabeledData& data) override;
  std::vector<double> Predict(const FeatureMatrix& x) const override;
  std::string name() const override { return "decision_tree"; }

 private:
  TaskType task_;
  TreeParams tree_params_;
  Rng rng_;
  Tree tree_;
  bool fitted_ = false;
};

}  // namespace kgpip::ml

#endif  // KGPIP_ML_TREE_H_
