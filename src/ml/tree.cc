#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "util/logging.h"

namespace kgpip::ml {

double Tree::Evaluate(const double* row) const {
  if (nodes_.empty()) return 0.0;
  int idx = 0;
  while (nodes_[idx].feature >= 0) {
    const TreeNode& n = nodes_[idx];
    idx = row[n.feature] <= n.threshold ? n.left : n.right;
  }
  return nodes_[idx].value;
}

namespace {

/// Chooses the feature subset scanned at one split.
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

/// One tree's row lists, cut from the shared FeatureOrder. Every list holds
/// the tree's rows (a row drawn k times appears k times) and a node owns
/// the same range [begin, end) of each. The rows list keeps the caller's
/// order, so node sums accumulate exactly as over a row vector; feature
/// f's list keeps (value, row) order, so a split scan reads it directly.
class RowLists {
 public:
  RowLists(const FeatureMatrix& x, const FeatureOrder& order,
           const std::vector<size_t>& rows)
      : x_(&x),
        size_(rows.size()),
        rows_(rows.begin(), rows.end()),
        sorted_(x.cols * rows.size()),
        scratch_(rows.size()),
        goes_left_(x.rows) {
    KGPIP_CHECK(order.rows == x.rows &&
                order.index.size() == x.rows * x.cols);
    std::vector<uint32_t> copies(x.rows, 0);
    for (size_t r : rows) ++copies[r];
    for (size_t f = 0; f < x.cols; ++f) {
      uint32_t* out = sorted_.data() + f * size_;
      for (const uint32_t* r = order.Column(f); r != order.Column(f + 1);
           ++r) {
        out = std::fill_n(out, copies[*r], *r);
      }
    }
  }

  const uint32_t* rows() const { return rows_.data(); }
  const uint32_t* Sorted(int f) const {
    return sorted_.data() + static_cast<size_t>(f) * size_;
  }

  /// Splits node [begin, end) on x(r, feature) <= threshold. If both sides
  /// keep at least `min_leaf` rows, stably partitions every list's range
  /// (left rows first) and returns the boundary; otherwise changes nothing.
  std::optional<size_t> Partition(size_t begin, size_t end, int feature,
                                  double threshold, size_t min_leaf) {
    size_t left = 0;
    for (size_t i = begin; i < end; ++i) {
      const uint32_t r = rows_[i];
      goes_left_[r] = x_->At(r, feature) <= threshold;
      left += goes_left_[r];
    }
    if (left < min_leaf || end - begin - left < min_leaf) return std::nullopt;
    PartitionList(rows_.data(), begin, end);
    for (size_t f = 0; f < x_->cols; ++f) {
      PartitionList(sorted_.data() + f * size_, begin, end);
    }
    return begin + left;
  }

 private:
  void PartitionList(uint32_t* list, size_t begin, size_t end) {
    uint32_t* left = list + begin;
    uint32_t* right = scratch_.data();
    for (size_t i = begin; i < end; ++i) {
      if (goes_left_[list[i]]) {
        *left++ = list[i];
      } else {
        *right++ = list[i];
      }
    }
    std::copy(scratch_.data(), right, left);
  }

  const FeatureMatrix* x_;
  size_t size_;
  std::vector<uint32_t> rows_;
  std::vector<uint32_t> sorted_;
  std::vector<uint32_t> scratch_;
  std::vector<uint8_t> goes_left_;
};

struct Split {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

double LeafObjective(double sum_g, double sum_h, double lambda) {
  return sum_g * sum_g / (sum_h + lambda);
}

/// Builder state shared across the recursion for gradient trees.
struct GradientBuilder {
  const FeatureMatrix* x;
  const std::vector<double>* grad;
  const std::vector<double>* hess;
  TreeParams params;
  Rng* rng;
  std::vector<TreeNode>* nodes;
  RowLists* lists;

  int Build(size_t begin, size_t end, int depth) {
    double sum_g = 0.0;
    double sum_h = 0.0;
    const uint32_t* rows = lists->rows();
    for (size_t i = begin; i < end; ++i) {
      sum_g += (*grad)[rows[i]];
      sum_h += (*hess)[rows[i]];
    }
    int node_index = static_cast<int>(nodes->size());
    nodes->push_back(TreeNode{});
    const bool can_split =
        depth < params.max_depth &&
        end - begin >= static_cast<size_t>(params.min_samples_split);
    if (can_split) {
      Split best = FindSplit(begin, end, sum_g, sum_h);
      std::optional<size_t> mid;
      if (best.feature >= 0) {
        mid = lists->Partition(
            begin, end, best.feature, best.threshold,
            static_cast<size_t>(params.min_samples_leaf));
      }
      if (mid) {
        (*nodes)[node_index].feature = best.feature;
        (*nodes)[node_index].threshold = best.threshold;
        int left = Build(begin, *mid, depth + 1);
        int right = Build(*mid, end, depth + 1);
        (*nodes)[node_index].left = left;
        (*nodes)[node_index].right = right;
        return node_index;
      }
    }
    (*nodes)[node_index].value = -sum_g / (sum_h + params.lambda);
    return node_index;
  }

  Split FindSplit(size_t begin, size_t end, double sum_g, double sum_h) {
    Split best;
    const double parent_obj =
        LeafObjective(sum_g, sum_h, params.lambda);
    const size_t count = end - begin;
    const size_t min_leaf = static_cast<size_t>(params.min_samples_leaf);
    for (int f : SampleFeatures(x->cols, params.max_features, rng)) {
      if (count < 2) continue;
      const uint32_t* sorted = lists->Sorted(f) + begin;
      const double lo = x->At(sorted[0], f);
      const double hi = x->At(sorted[count - 1], f);
      if (lo == hi) continue;
      if (params.random_thresholds) {
        double threshold = rng->Uniform(lo, hi);
        double left_g = 0.0;
        double left_h = 0.0;
        size_t left_count = 0;
        for (; left_count < count &&
               x->At(sorted[left_count], f) <= threshold;
             ++left_count) {
          left_g += (*grad)[sorted[left_count]];
          left_h += (*hess)[sorted[left_count]];
        }
        if (left_count < min_leaf || count - left_count < min_leaf) {
          continue;
        }
        double gain = LeafObjective(left_g, left_h, params.lambda) +
                      LeafObjective(sum_g - left_g, sum_h - left_h,
                                    params.lambda) -
                      parent_obj;
        if (gain > best.gain) best = {f, threshold, gain};
      } else {
        double left_g = 0.0;
        double left_h = 0.0;
        double next = lo;
        for (size_t i = 0; i + 1 < count; ++i) {
          left_g += (*grad)[sorted[i]];
          left_h += (*hess)[sorted[i]];
          const double value = next;
          next = x->At(sorted[i + 1], f);
          if (value == next) continue;
          size_t left_count = i + 1;
          if (left_count < min_leaf || count - left_count < min_leaf) {
            continue;
          }
          double gain = LeafObjective(left_g, left_h, params.lambda) +
                        LeafObjective(sum_g - left_g, sum_h - left_h,
                                      params.lambda) -
                        parent_obj;
          if (gain > best.gain) best = {f, 0.5 * (value + next), gain};
        }
      }
    }
    return best;
  }
};

/// Builder for Gini classification trees.
struct GiniBuilder {
  const FeatureMatrix* x;
  const std::vector<double>* y;
  int num_classes;
  TreeParams params;
  Rng* rng;
  std::vector<TreeNode>* nodes;
  RowLists* lists;

  static double Gini(const std::vector<double>& counts, double total) {
    if (total <= 0.0) return 0.0;
    double g = 1.0;
    for (double c : counts) {
      double p = c / total;
      g -= p * p;
    }
    return g;
  }

  int Build(size_t begin, size_t end, int depth) {
    std::vector<double> counts(num_classes, 0.0);
    const uint32_t* rows = lists->rows();
    for (size_t i = begin; i < end; ++i) {
      counts[static_cast<size_t>((*y)[rows[i]])] += 1.0;
    }
    int majority = 0;
    for (int c = 1; c < num_classes; ++c) {
      if (counts[c] > counts[majority]) majority = c;
    }
    const bool pure =
        counts[majority] == static_cast<double>(end - begin);
    int node_index = static_cast<int>(nodes->size());
    nodes->push_back(TreeNode{});
    const bool can_split =
        !pure && depth < params.max_depth &&
        end - begin >= static_cast<size_t>(params.min_samples_split);
    if (can_split) {
      Split best = FindSplit(begin, end, counts);
      std::optional<size_t> mid;
      if (best.feature >= 0 && best.gain > 1e-12) {
        mid = lists->Partition(
            begin, end, best.feature, best.threshold,
            static_cast<size_t>(params.min_samples_leaf));
      }
      if (mid) {
        (*nodes)[node_index].feature = best.feature;
        (*nodes)[node_index].threshold = best.threshold;
        int left = Build(begin, *mid, depth + 1);
        int right = Build(*mid, end, depth + 1);
        (*nodes)[node_index].left = left;
        (*nodes)[node_index].right = right;
        return node_index;
      }
    }
    (*nodes)[node_index].value = static_cast<double>(majority);
    return node_index;
  }

  Split FindSplit(size_t begin, size_t end,
                  const std::vector<double>& counts) {
    const size_t count = end - begin;
    const double total = static_cast<double>(count);
    const double parent_gini = Gini(counts, total);
    Split best;
    std::vector<double> left_counts(num_classes, 0.0);
    std::vector<double> right_counts(num_classes, 0.0);
    const size_t min_leaf = static_cast<size_t>(params.min_samples_leaf);
    for (int f : SampleFeatures(x->cols, params.max_features, rng)) {
      if (count < 2) continue;
      const uint32_t* sorted = lists->Sorted(f) + begin;
      const double lo = x->At(sorted[0], f);
      const double hi = x->At(sorted[count - 1], f);
      if (lo == hi) continue;
      std::fill(left_counts.begin(), left_counts.end(), 0.0);
      if (params.random_thresholds) {
        double threshold = rng->Uniform(lo, hi);
        double left_total = 0.0;
        for (size_t i = 0; i < count && x->At(sorted[i], f) <= threshold;
             ++i) {
          left_counts[static_cast<size_t>((*y)[sorted[i]])] += 1.0;
          left_total += 1.0;
        }
        if (left_total < static_cast<double>(min_leaf) ||
            total - left_total < static_cast<double>(min_leaf)) {
          continue;
        }
        for (int c = 0; c < num_classes; ++c) {
          right_counts[c] = counts[c] - left_counts[c];
        }
        double gain = parent_gini -
                      (left_total / total) * Gini(left_counts, left_total) -
                      ((total - left_total) / total) *
                          Gini(right_counts, total - left_total);
        if (gain > best.gain) best = {f, threshold, gain};
      } else {
        double left_total = 0.0;
        double next = lo;
        for (size_t i = 0; i + 1 < count; ++i) {
          left_counts[static_cast<size_t>((*y)[sorted[i]])] += 1.0;
          left_total += 1.0;
          const double value = next;
          next = x->At(sorted[i + 1], f);
          if (value == next) continue;
          if (left_total < static_cast<double>(min_leaf) ||
              total - left_total < static_cast<double>(min_leaf)) {
            continue;
          }
          double right_total = total - left_total;
          double left_gini = Gini(left_counts, left_total);
          double right_gini = 1.0;
          for (int c = 0; c < num_classes; ++c) {
            double p = (counts[c] - left_counts[c]) / right_total;
            right_gini -= p * p;
          }
          double gain = parent_gini -
                        (left_total / total) * left_gini -
                        (right_total / total) * right_gini;
          if (gain > best.gain) best = {f, 0.5 * (value + next), gain};
        }
      }
    }
    return best;
  }
};

}  // namespace

FeatureOrder SortFeatures(const FeatureMatrix& x) {
  KGPIP_CHECK(x.rows <= std::numeric_limits<uint32_t>::max());
  FeatureOrder order;
  order.rows = x.rows;
  order.index.resize(x.rows * x.cols);
  std::vector<std::pair<double, uint32_t>> column(x.rows);
  for (size_t f = 0; f < x.cols; ++f) {
    for (size_t r = 0; r < x.rows; ++r) {
      column[r] = {x.At(r, f), static_cast<uint32_t>(r)};
    }
    std::sort(column.begin(), column.end());
    uint32_t* out = order.index.data() + f * x.rows;
    for (const auto& [value, r] : column) *out++ = r;
  }
  return order;
}

Tree FitGradientTree(const FeatureMatrix& x, const FeatureOrder& order,
                     const std::vector<double>& grad,
                     const std::vector<double>& hess,
                     const std::vector<size_t>& rows,
                     const TreeParams& params, Rng* rng) {
  KGPIP_CHECK(grad.size() == x.rows && hess.size() == x.rows);
  Tree tree;
  if (rows.empty()) return tree;
  RowLists lists(x, order, rows);
  GradientBuilder builder{&x,  &grad, &hess, params,
                          rng, &tree.mutable_nodes(), &lists};
  builder.Build(0, rows.size(), 0);
  return tree;
}

Tree FitClassificationTree(const FeatureMatrix& x, const FeatureOrder& order,
                           const std::vector<double>& y, int num_classes,
                           const std::vector<size_t>& rows,
                           const TreeParams& params, Rng* rng) {
  KGPIP_CHECK(y.size() == x.rows);
  Tree tree;
  if (rows.empty()) return tree;
  RowLists lists(x, order, rows);
  GiniBuilder builder{&x,  &y,  num_classes,           params,
                      rng, &tree.mutable_nodes(), &lists};
  builder.Build(0, rows.size(), 0);
  return tree;
}

DecisionTreeLearner::DecisionTreeLearner(TaskType task,
                                         const HyperParams& params,
                                         uint64_t seed)
    : task_(task), rng_(seed) {
  tree_params_.max_depth = params.GetInt("max_depth", 10);
  tree_params_.min_samples_leaf = params.GetInt("min_samples_leaf", 2);
  tree_params_.min_samples_split =
      params.GetInt("min_samples_split",
                    2 * tree_params_.min_samples_leaf);
  tree_params_.max_features = params.GetNum("max_features", 1.0);
}

Status DecisionTreeLearner::Fit(const LabeledData& data) {
  if (data.rows() == 0) return Status::InvalidArgument("empty dataset");
  std::vector<size_t> rows(data.rows());
  std::iota(rows.begin(), rows.end(), 0);
  const FeatureOrder order = SortFeatures(data.x);
  if (IsClassification(task_)) {
    tree_ = FitClassificationTree(data.x, order, data.y, data.num_classes,
                                  rows, tree_params_, &rng_);
  } else {
    // Least-squares regression tree: g = -y, h = 1 gives mean leaves.
    std::vector<double> grad(data.rows());
    std::vector<double> hess(data.rows(), 1.0);
    for (size_t i = 0; i < data.rows(); ++i) grad[i] = -data.y[i];
    TreeParams p = tree_params_;
    p.lambda = 0.0;
    tree_ = FitGradientTree(data.x, order, grad, hess, rows, p, &rng_);
  }
  fitted_ = true;
  return Status::Ok();
}

std::vector<double> DecisionTreeLearner::Predict(
    const FeatureMatrix& x) const {
  KGPIP_CHECK(fitted_);
  std::vector<double> out(x.rows);
  for (size_t r = 0; r < x.rows; ++r) out[r] = tree_.Evaluate(x.Row(r));
  return out;
}

}  // namespace kgpip::ml
