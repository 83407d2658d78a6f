#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nn/autograd.h"
#include "nn/layers.h"
#include "util/logging.h"

namespace kgpip::nn {
namespace {

/// C = A^T * B as a plain scalar loop (the reference the tape's backward
/// kernels are checked against).
Matrix ReferenceTransposeMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  for (size_t k = 0; k < a.rows(); ++k) {
    for (size_t i = 0; i < a.cols(); ++i) {
      for (size_t j = 0; j < b.cols(); ++j) c(i, j) += a(k, i) * b(k, j);
    }
  }
  return c;
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  int v = 1;
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) a(i, j) = v++;
  }
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) b(i, j) = v++;
  }
  Matrix c = Matrix::MatMul(a, b);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  EXPECT_DOUBLE_EQ(c(0, 0), 1 * 7 + 2 * 9 + 3 * 11);
  EXPECT_DOUBLE_EQ(c(1, 1), 4 * 8 + 5 * 10 + 6 * 12);
  // The transposed reference agrees with an explicit transpose.
  Matrix at_b = ReferenceTransposeMatMul(a, a);
  Matrix expected = Matrix::MatMul(a.Transposed(), a);
  for (size_t i = 0; i < at_b.rows(); ++i) {
    for (size_t j = 0; j < at_b.cols(); ++j) {
      EXPECT_NEAR(at_b(i, j), expected(i, j), 1e-12);
    }
  }
}

/// Central-difference gradient check: builds `loss(fn)` twice with a
/// nudged parameter and compares against the autograd gradient.
void CheckGradients(Var param, const std::function<Var()>& loss_fn,
                    double tol = 1e-5) {
  Var loss = loss_fn();
  Backward(loss);
  Matrix analytic = param.grad();
  const double eps = 1e-5;
  for (size_t i = 0; i < param.value().size(); ++i) {
    double saved = param.mutable_value().data()[i];
    param.mutable_value().data()[i] = saved + eps;
    double up = loss_fn().value()(0, 0);
    param.mutable_value().data()[i] = saved - eps;
    double down = loss_fn().value()(0, 0);
    param.mutable_value().data()[i] = saved;
    double numeric = (up - down) / (2.0 * eps);
    ASSERT_NEAR(analytic.data()[i], numeric, tol)
        << "param element " << i;
  }
}

TEST(MatrixTest, MovedFromMatrixIsEmpty) {
  // A moved-from matrix must not keep its shape over an empty buffer:
  // SameShape() would then vouch for it and EnsureGrad() would write
  // through a null buffer.
  Matrix a(3, 4, 1.5);
  Matrix b(std::move(a));
  EXPECT_EQ(a.rows(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.cols(), 0u);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(b.rows(), 3u);
  EXPECT_EQ(b(2, 3), 1.5);

  Matrix c(2, 2);
  c = std::move(b);
  EXPECT_EQ(b.rows(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.cols(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.rows(), 3u);

  VarNode node;
  node.value = Matrix(3, 4);
  node.grad = Matrix(3, 4, 2.0);
  Matrix taken = std::move(node.grad);
  EXPECT_FALSE(node.grad.SameShape(node.value));
  node.EnsureGrad();
  ASSERT_EQ(node.grad.size(), 12u);
  for (size_t i = 0; i < node.grad.size(); ++i) {
    EXPECT_EQ(node.grad.data()[i], 0.0);
  }

  // std::swap (the gradient hand-off) exchanges buffers and shapes.
  Matrix x(1, 2, 7.0);
  Matrix y(2, 3, 9.0);
  std::swap(x, y);
  EXPECT_EQ(x.rows(), 2u);
  EXPECT_EQ(x(1, 2), 9.0);
  EXPECT_EQ(y.cols(), 2u);
  EXPECT_EQ(y(0, 1), 7.0);
}

TEST(AutogradTest, MatMulSigmoidChainGradients) {
  Rng rng(3);
  Var w(Matrix::Randn(4, 3, &rng), /*requires_grad=*/true);
  Var x(Matrix::Randn(2, 4, &rng));
  auto loss_fn = [&] { return MeanAll(Sigmoid(MatMul(x, w))); };
  w.ZeroGrad();
  CheckGradients(w, loss_fn);
}

TEST(AutogradTest, GruCellGradients) {
  Rng rng(5);
  ParamStore store;
  GruCell cell(&store, "gru", 3, 3, &rng);
  Var x(Matrix::Randn(2, 3, &rng));
  Var h(Matrix::Randn(2, 3, &rng));
  auto loss_fn = [&] { return MeanAll(cell.Forward(x, h)); };
  for (Var param : store.params()) CheckGradients(param, loss_fn, 1e-4);
}

TEST(AutogradTest, SoftmaxCrossEntropyGradients) {
  Var logits(Matrix(3, 4), true);
  for (size_t i = 0; i < logits.value().size(); ++i) {
    logits.mutable_value().data()[i] = 0.1 * static_cast<double>(i) - 0.5;
  }
  std::vector<int> targets = {1, 3, 0};
  auto loss_fn = [&] { return SoftmaxCrossEntropy(logits, targets); };
  logits.ZeroGrad();
  CheckGradients(logits, loss_fn);
}

TEST(AutogradTest, GatherScatterConcatGradients) {
  Rng rng(9);
  Var a(Matrix::Randn(4, 3, &rng), true);
  std::vector<size_t> idx = {2, 0, 2};
  auto loss_fn = [&] {
    Var gathered = GatherRows(a, idx);
    Var scattered = ScatterAddRows(gathered, {0, 1, 1}, 2);
    Var combined = ConcatCols(scattered, Scale(scattered, 0.5));
    return MeanAll(Tanh(combined));
  };
  a.ZeroGrad();
  CheckGradients(a, loss_fn);
}

TEST(AutogradTest, BceWithLogitsMatchesClosedForm) {
  Var logit(Matrix(1, 1), true);
  logit.mutable_value()(0, 0) = 0.7;
  Var loss = BinaryCrossEntropyWithLogits(logit, 1.0);
  double p = 1.0 / (1.0 + std::exp(-0.7));
  EXPECT_NEAR(loss.value()(0, 0), -std::log(p), 1e-12);
  logit.ZeroGrad();
  Backward(loss);
  EXPECT_NEAR(logit.grad()(0, 0), p - 1.0, 1e-12);
}

TEST(AutogradTest, DeepChainBackwardDoesNotOverflowStack) {
  Var x(Matrix(1, 1), true);
  x.mutable_value()(0, 0) = 0.01;
  Var y = x;
  for (int i = 0; i < 20000; ++i) y = Scale(y, 1.0);
  Var loss = MeanAll(y);
  Backward(loss);  // must not crash
  EXPECT_NEAR(x.grad()(0, 0), 1.0, 1e-12);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  ParamStore store;
  Rng rng(1);
  Var w = store.Create("w", 1, 4, &rng);
  Adam adam(&store, 0.05);
  Matrix target(1, 4);
  for (size_t i = 0; i < 4; ++i) target(0, i) = static_cast<double>(i);
  std::vector<Matrix> grads;
  for (int step = 0; step < 400; ++step) {
    Var diff = Sub(w, Var(target));
    Var loss = MeanAll(Mul(diff, diff));
    Backward(loss);
    store.TakeGrads(&grads);
    adam.Step({&grads, 1});
  }
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(w.value()(0, i), target(0, i), 1e-2);
  }
}

TEST(ParamStoreTest, JsonRoundTrip) {
  ParamStore store;
  Rng rng(2);
  Var a = store.Create("a", 2, 3, &rng);
  Var b = store.Create("b", 1, 5, &rng);
  Json json = store.ToJson();

  ParamStore other;
  Rng rng2(99);
  Var a2 = other.Create("a", 2, 3, &rng2);
  Var b2 = other.Create("b", 1, 5, &rng2);
  ASSERT_TRUE(other.FromJson(json).ok());
  for (size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_DOUBLE_EQ(a2.value().data()[i], a.value().data()[i]);
  }
  for (size_t i = 0; i < b.value().size(); ++i) {
    EXPECT_DOUBLE_EQ(b2.value().data()[i], b.value().data()[i]);
  }
  // Shape mismatch rejected.
  ParamStore wrong;
  Rng rng3(1);
  wrong.Create("a", 3, 2, &rng3);
  EXPECT_FALSE(wrong.FromJson(json).ok());
}

}  // namespace
}  // namespace kgpip::nn
