#include "nn/autograd.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "nn/simd_kernels.h"
#include "util/logging.h"

namespace kgpip::nn {

Var::Var(Matrix value, bool requires_grad) {
  node_ = std::make_shared<VarNode>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

Var MakeOp(Matrix value, std::vector<Var> parents,
           std::function<void(VarNode&)> backward) {
  Var out;
  out.node_ = std::make_shared<VarNode>();
  out.node_->value = std::move(value);
  bool any_grad = false;
  for (const Var& p : parents) {
    KGPIP_CHECK(p.defined());
    out.node_->parents.push_back(p.node());
    any_grad = any_grad || p.node()->requires_grad;
  }
  out.node_->requires_grad = any_grad;
  if (any_grad) out.node_->backward = std::move(backward);
  return out;
}

namespace {

/// This thread's transposes of the matrices the running Backward pass has
/// fed to GemmNTAccum. One weight feeds many backward GEMMs of a pass (each
/// GRU gate runs in every propagation round of every decision) and values
/// never change or move during a pass, so each is packed once per pass.
/// Buffers are reused across passes: steady state allocates nothing.
class TransposeMemo {
 public:
  void NewPass() { used_ = 0; }

  const double* Transposed(const Matrix& m) {
    for (size_t e = 0; e < used_; ++e) {
      if (keys_[e] == &m) return packed_[e].data();
    }
    if (used_ == packed_.size()) {
      keys_.push_back(nullptr);
      packed_.emplace_back();
    }
    keys_[used_] = &m;
    Matrix& t = packed_[used_++];
    t.Reshape(m.cols(), m.rows());
    for (size_t i = 0; i < m.rows(); ++i) {
      for (size_t j = 0; j < m.cols(); ++j) t(j, i) = m(i, j);
    }
    return t.data();
  }

 private:
  size_t used_ = 0;
  std::vector<const Matrix*> keys_;
  std::vector<Matrix> packed_;
};

thread_local TransposeMemo t_transposes;

}  // namespace

void Backward(const Var& loss) {
  KGPIP_CHECK(loss.defined());
  KGPIP_CHECK(loss.value().rows() == 1 && loss.value().cols() == 1)
      << "Backward expects a scalar loss";
  // Iterative topological sort (graphs can be deep for long generation
  // sequences, so recursion is off the table).
  std::vector<VarNode*> order;
  std::unordered_set<VarNode*> visited;
  std::vector<std::pair<VarNode*, size_t>> stack;
  stack.emplace_back(loss.node().get(), 0);
  visited.insert(loss.node().get());
  while (!stack.empty()) {
    auto& [node, child_index] = stack.back();
    if (child_index < node->parents.size()) {
      VarNode* parent = node->parents[child_index].get();
      ++child_index;
      if (parent->requires_grad && !visited.count(parent)) {
        visited.insert(parent);
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // `order` is post-order: parents before children; iterate in reverse.
  for (VarNode* node : order) {
    node->grad.AssignZeros(node->value.rows(), node->value.cols());
  }
  loss.node()->grad(0, 0) = 1.0;
  t_transposes.NewPass();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    VarNode* node = *it;
    if (node->backward) node->backward(*node);
  }
}

namespace {

/// Ensures the parent's grad buffer exists before accumulation.
Matrix& GradOf(const std::shared_ptr<VarNode>& parent) {
  parent->EnsureGrad();
  return parent->grad;
}

/// Gradients of C = A * B given dC: dA += dC * B^T, then dB += A^T * dC,
/// each on the dispatched fresh-chain backward kernels.
void MatMulBackward(const Matrix& dc, const std::shared_ptr<VarNode>& pa,
                    const std::shared_ptr<VarNode>& pb) {
  const Matrix& a = pa->value;
  const Matrix& b = pb->value;
  const simd::Isa isa = simd::ActiveIsa();
  if (pa->requires_grad) {
    simd::GemmNTAccum(isa, dc.data(), t_transposes.Transposed(b),
                      GradOf(pa).data(), a.rows(), b.cols(), a.cols());
  }
  if (pb->requires_grad) {
    simd::GemmTNAccum(isa, a.data(), dc.data(), GradOf(pb).data(), a.rows(),
                      a.cols(), b.cols());
  }
}

}  // namespace

Var MatMul(const Var& a, const Var& b) {
  Matrix value = Matrix::MatMul(a.value(), b.value());
  return MakeOp(std::move(value), {a, b}, [](VarNode& self) {
    MatMulBackward(self.grad, self.parents[0], self.parents[1]);
  });
}

Var Affine(const Var& x, const Var& w, const Var& bias) {
  KGPIP_CHECK(bias.rows() == 1 && bias.cols() == w.cols());
  const simd::Isa isa = simd::ActiveIsa();
  Matrix value = Matrix::MatMul(x.value(), w.value());
  simd::BiasRows(isa, value.data(), bias.value().data(), value.rows(),
                 value.cols());
  return MakeOp(std::move(value), {x, w, bias}, [](VarNode& self) {
    // b, then x, then w: the order a MatMul node plus a row-broadcast
    // node above it contribute in (only parameter leaves sit between the
    // two in reverse topological order), so fusing changes no bits.
    const auto& pb = self.parents[2];
    if (pb->requires_grad) {
      double* bg = GradOf(pb).data();
      const size_t cols = self.grad.cols();
      for (size_t i = 0; i < self.grad.rows(); ++i) {
        const double* row = self.grad.data() + i * cols;
        for (size_t j = 0; j < cols; ++j) bg[j] += row[j];
      }
    }
    MatMulBackward(self.grad, self.parents[0], self.parents[1]);
  });
}

Var Add(const Var& a, const Var& b) {
  KGPIP_CHECK(a.value().SameShape(b.value()));
  Matrix value = a.value();
  value.AddInPlace(b.value());
  return MakeOp(std::move(value), {a, b}, [](VarNode& self) {
    GradOf(self.parents[0]).AddInPlace(self.grad);
    GradOf(self.parents[1]).AddInPlace(self.grad);
  });
}

Var Sub(const Var& a, const Var& b) {
  KGPIP_CHECK(a.value().SameShape(b.value()));
  Matrix value = a.value();
  value.AddScaled(b.value(), -1.0);
  return MakeOp(std::move(value), {a, b}, [](VarNode& self) {
    GradOf(self.parents[0]).AddInPlace(self.grad);
    GradOf(self.parents[1]).AddScaled(self.grad, -1.0);
  });
}

Var Mul(const Var& a, const Var& b) {
  KGPIP_CHECK(a.value().SameShape(b.value()));
  Matrix value = a.value();
  for (size_t i = 0; i < value.size(); ++i) {
    value.data()[i] *= b.value().data()[i];
  }
  return MakeOp(std::move(value), {a, b}, [](VarNode& self) {
    auto& pa = self.parents[0];
    auto& pb = self.parents[1];
    Matrix& ga = GradOf(pa);
    Matrix& gb = GradOf(pb);
    for (size_t i = 0; i < self.grad.size(); ++i) {
      ga.data()[i] += self.grad.data()[i] * pb->value.data()[i];
      gb.data()[i] += self.grad.data()[i] * pa->value.data()[i];
    }
  });
}

Var Scale(const Var& a, double s) {
  Matrix value = a.value();
  for (size_t i = 0; i < value.size(); ++i) value.data()[i] *= s;
  return MakeOp(std::move(value), {a}, [s](VarNode& self) {
    GradOf(self.parents[0]).AddScaled(self.grad, s);
  });
}

Var Sigmoid(const Var& a) {
  Matrix value = a.value();
  // The dispatched kernel is FastSigmoid lane by lane (bit-identical).
  simd::SigmoidN(simd::ActiveIsa(), value.data(), value.size());
  return MakeOp(std::move(value), {a}, [](VarNode& self) {
    Matrix& g = GradOf(self.parents[0]);
    for (size_t i = 0; i < self.grad.size(); ++i) {
      double y = self.value.data()[i];
      g.data()[i] += self.grad.data()[i] * y * (1.0 - y);
    }
  });
}

Var Tanh(const Var& a) {
  Matrix value = a.value();
  simd::TanhN(simd::ActiveIsa(), value.data(), value.size());
  return MakeOp(std::move(value), {a}, [](VarNode& self) {
    Matrix& g = GradOf(self.parents[0]);
    for (size_t i = 0; i < self.grad.size(); ++i) {
      double y = self.value.data()[i];
      g.data()[i] += self.grad.data()[i] * (1.0 - y * y);
    }
  });
}

Var Relu(const Var& a) {
  Matrix value = a.value();
  for (size_t i = 0; i < value.size(); ++i) {
    value.data()[i] = std::max(0.0, value.data()[i]);
  }
  return MakeOp(std::move(value), {a}, [](VarNode& self) {
    Matrix& g = GradOf(self.parents[0]);
    for (size_t i = 0; i < self.grad.size(); ++i) {
      if (self.value.data()[i] > 0.0) g.data()[i] += self.grad.data()[i];
    }
  });
}

Var ConcatCols(const Var& a, const Var& b) {
  KGPIP_CHECK(a.rows() == b.rows());
  Matrix value(a.rows(), a.cols() + b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) value(i, j) = a.value()(i, j);
    for (size_t j = 0; j < b.cols(); ++j) {
      value(i, a.cols() + j) = b.value()(i, j);
    }
  }
  size_t a_cols = a.cols();
  return MakeOp(std::move(value), {a, b}, [a_cols](VarNode& self) {
    Matrix& ga = GradOf(self.parents[0]);
    Matrix& gb = GradOf(self.parents[1]);
    for (size_t i = 0; i < self.grad.rows(); ++i) {
      for (size_t j = 0; j < a_cols; ++j) ga(i, j) += self.grad(i, j);
      for (size_t j = 0; j < gb.cols(); ++j) {
        gb(i, j) += self.grad(i, a_cols + j);
      }
    }
  });
}

Var ConcatRows(const Var& a, const Var& b) {
  KGPIP_CHECK(a.cols() == b.cols());
  Matrix value(a.rows() + b.rows(), a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) value(i, j) = a.value()(i, j);
  }
  for (size_t i = 0; i < b.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      value(a.rows() + i, j) = b.value()(i, j);
    }
  }
  size_t a_rows = a.rows();
  return MakeOp(std::move(value), {a, b}, [a_rows](VarNode& self) {
    Matrix& ga = GradOf(self.parents[0]);
    Matrix& gb = GradOf(self.parents[1]);
    for (size_t i = 0; i < a_rows; ++i) {
      for (size_t j = 0; j < self.grad.cols(); ++j) {
        ga(i, j) += self.grad(i, j);
      }
    }
    for (size_t i = 0; i < gb.rows(); ++i) {
      for (size_t j = 0; j < self.grad.cols(); ++j) {
        gb(i, j) += self.grad(a_rows + i, j);
      }
    }
  });
}

Var GatherRows(const Var& a, const std::vector<size_t>& indices) {
  Matrix value(indices.size(), a.cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    KGPIP_CHECK(indices[i] < a.rows());
    for (size_t j = 0; j < a.cols(); ++j) {
      value(i, j) = a.value()(indices[i], j);
    }
  }
  return MakeOp(std::move(value), {a}, [indices](VarNode& self) {
    Matrix& g = GradOf(self.parents[0]);
    for (size_t i = 0; i < indices.size(); ++i) {
      for (size_t j = 0; j < self.grad.cols(); ++j) {
        g(indices[i], j) += self.grad(i, j);
      }
    }
  });
}

Var ScatterAddRows(const Var& a, const std::vector<size_t>& indices,
                   size_t num_rows) {
  KGPIP_CHECK(indices.size() == a.rows());
  Matrix value(num_rows, a.cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    KGPIP_CHECK(indices[i] < num_rows);
    for (size_t j = 0; j < a.cols(); ++j) {
      value(indices[i], j) += a.value()(i, j);
    }
  }
  return MakeOp(std::move(value), {a}, [indices](VarNode& self) {
    Matrix& g = GradOf(self.parents[0]);
    for (size_t i = 0; i < indices.size(); ++i) {
      for (size_t j = 0; j < g.cols(); ++j) {
        g(i, j) += self.grad(indices[i], j);
      }
    }
  });
}

Var SumRows(const Var& a) {
  Matrix value(1, a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) value(0, j) += a.value()(i, j);
  }
  return MakeOp(std::move(value), {a}, [](VarNode& self) {
    Matrix& g = GradOf(self.parents[0]);
    for (size_t i = 0; i < g.rows(); ++i) {
      for (size_t j = 0; j < g.cols(); ++j) g(i, j) += self.grad(0, j);
    }
  });
}

Var SumAll(const Var& a) {
  Matrix value(1, 1);
  for (size_t i = 0; i < a.value().size(); ++i) {
    value(0, 0) += a.value().data()[i];
  }
  return MakeOp(std::move(value), {a}, [](VarNode& self) {
    Matrix& g = GradOf(self.parents[0]);
    double d = self.grad(0, 0);
    for (size_t i = 0; i < g.size(); ++i) g.data()[i] += d;
  });
}

Var MeanAll(const Var& a) {
  double inv = 1.0 / static_cast<double>(a.value().size());
  return Scale(SumAll(a), inv);
}

Matrix SoftmaxValue(const Matrix& logits) {
  Matrix out(logits.rows(), logits.cols());
  for (size_t i = 0; i < logits.rows(); ++i) {
    double max_logit = logits(i, 0);
    for (size_t j = 1; j < logits.cols(); ++j) {
      max_logit = std::max(max_logit, logits(i, j));
    }
    double z = 0.0;
    for (size_t j = 0; j < logits.cols(); ++j) {
      out(i, j) = std::exp(logits(i, j) - max_logit);
      z += out(i, j);
    }
    for (size_t j = 0; j < logits.cols(); ++j) out(i, j) /= z;
  }
  return out;
}

Var SoftmaxCrossEntropy(const Var& logits, const std::vector<int>& targets) {
  KGPIP_CHECK(targets.size() == logits.rows());
  Matrix probs = SoftmaxValue(logits.value());
  Matrix value(1, 1);
  for (size_t i = 0; i < targets.size(); ++i) {
    KGPIP_CHECK(targets[i] >= 0 &&
                static_cast<size_t>(targets[i]) < logits.cols());
    value(0, 0) -= std::log(std::max(
        probs(i, static_cast<size_t>(targets[i])), 1e-12));
  }
  value(0, 0) /= static_cast<double>(targets.size());
  return MakeOp(std::move(value), {logits},
                [probs, targets](VarNode& self) {
                  Matrix& g = GradOf(self.parents[0]);
                  double d = self.grad(0, 0) /
                             static_cast<double>(targets.size());
                  for (size_t i = 0; i < probs.rows(); ++i) {
                    for (size_t j = 0; j < probs.cols(); ++j) {
                      double y = j == static_cast<size_t>(targets[i])
                                     ? 1.0
                                     : 0.0;
                      g(i, j) += d * (probs(i, j) - y);
                    }
                  }
                });
}

Var BinaryCrossEntropyWithLogits(const Var& logit, double target) {
  KGPIP_CHECK(logit.rows() == 1 && logit.cols() == 1);
  double x = logit.value()(0, 0);
  // log(1 + e^-|x|) + max(x,0) - x*t (stable formulation).
  double loss = std::log1p(std::exp(-std::fabs(x))) + std::max(x, 0.0) -
                x * target;
  Matrix value(1, 1);
  value(0, 0) = loss;
  double p = 1.0 / (1.0 + std::exp(-x));
  return MakeOp(std::move(value), {logit}, [p, target](VarNode& self) {
    GradOf(self.parents[0])(0, 0) += self.grad(0, 0) * (p - target);
  });
}

}  // namespace kgpip::nn
