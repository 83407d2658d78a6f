#ifndef KGPIP_NN_AUTOGRAD_H_
#define KGPIP_NN_AUTOGRAD_H_

#include <functional>
#include <memory>
#include <vector>

#include "nn/matrix.h"

namespace kgpip::nn {

/// One node of the dynamically built computation graph.
struct VarNode {
  Matrix value;
  Matrix grad;  // same shape as value; lazily sized
  bool requires_grad = false;
  std::vector<std::shared_ptr<VarNode>> parents;
  /// Accumulates gradients into the parents given this node's grad.
  std::function<void(VarNode&)> backward;

  /// Sizes `grad` to zeros of value's shape unless it already has it
  /// (reusing a handed-back buffer's capacity; see ParamStore::TakeGrads).
  void EnsureGrad() {
    if (!grad.SameShape(value)) grad.AssignZeros(value.rows(), value.cols());
  }
};

/// Handle to a computation-graph node. Cheap to copy.
///
/// This is a classic define-by-run reverse-mode autograd: every op builds
/// a VarNode holding the forward value and a closure that back-propagates
/// into its parents; `Backward` runs the closures in reverse topological
/// order. It is deliberately small — the DeepGMG generator only needs
/// dense matrix ops — but gradient-checked in tests.
class Var {
 public:
  Var() = default;
  explicit Var(Matrix value, bool requires_grad = false);

  const Matrix& value() const { return node_->value; }
  Matrix& mutable_value() { return node_->value; }
  const Matrix& grad() const { return node_->grad; }
  bool defined() const { return node_ != nullptr; }
  size_t rows() const { return node_->value.rows(); }
  size_t cols() const { return node_->value.cols(); }
  std::shared_ptr<VarNode> node() const { return node_; }

  void ZeroGrad() {
    node_->EnsureGrad();
    node_->grad.Fill(0.0);
  }

 private:
  friend Var MakeOp(Matrix value, std::vector<Var> parents,
                    std::function<void(VarNode&)> backward);
  std::shared_ptr<VarNode> node_;
};

/// Builds an op node (internal; exposed for extensions).
Var MakeOp(Matrix value, std::vector<Var> parents,
           std::function<void(VarNode&)> backward);

/// Runs reverse-mode accumulation from `loss` (must be 1x1).
void Backward(const Var& loss);

// ---- Ops -------------------------------------------------------------

Var MatMul(const Var& a, const Var& b);
/// x * w + bias (bias is 1 x cols(w), added to every row) as ONE node: the
/// forward is the dispatched GEMM plus bias kernel; the backward adds the
/// bias gradient (rows ascending), then dx, then dw.
Var Affine(const Var& x, const Var& w, const Var& bias);
Var Add(const Var& a, const Var& b);            // same shape
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);            // elementwise
Var Scale(const Var& a, double s);
Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Relu(const Var& a);
Var ConcatCols(const Var& a, const Var& b);
Var ConcatRows(const Var& a, const Var& b);
Var GatherRows(const Var& a, const std::vector<size_t>& indices);
/// Inverse of GatherRows: out has `num_rows` rows; row indices[i] of the
/// output accumulates row i of `a` (used for message aggregation).
Var ScatterAddRows(const Var& a, const std::vector<size_t>& indices,
                   size_t num_rows);
Var SumRows(const Var& a);   // n x d -> 1 x d
Var SumAll(const Var& a);    // -> 1 x 1
Var MeanAll(const Var& a);   // -> 1 x 1

/// Numerically stable fused softmax + cross entropy over each row of
/// `logits` against integer `targets` (one per row); returns mean loss
/// (1x1).
Var SoftmaxCrossEntropy(const Var& logits, const std::vector<int>& targets);

/// Stable sigmoid + binary cross entropy on a 1x1 logit.
Var BinaryCrossEntropyWithLogits(const Var& logit, double target);

/// Row-wise softmax probabilities of a forward value (no gradient).
Matrix SoftmaxValue(const Matrix& logits);

}  // namespace kgpip::nn

#endif  // KGPIP_NN_AUTOGRAD_H_
