#include "nn/layers.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "nn/simd_kernels.h"
#include "util/logging.h"

namespace kgpip::nn {

Var ParamStore::Create(const std::string& name, size_t rows, size_t cols,
                       Rng* rng) {
  Var param(Matrix::Randn(rows, cols, rng), /*requires_grad=*/true);
  params_.push_back(param);
  names_.push_back(name);
  return param;
}

void ParamStore::TakeGrads(std::vector<Matrix>* grads) {
  grads->resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    VarNode& node = *params_[i].node();
    Matrix& slot = (*grads)[i];
    if (node.grad.SameShape(node.value)) {
      std::swap(node.grad, slot);
      node.grad.Reshape(0, 0);
    } else {
      slot.Reshape(0, 0);  // not reached by Backward
    }
  }
}

size_t ParamStore::TotalSize() const {
  size_t n = 0;
  for (const Var& p : params_) n += p.value().size();
  return n;
}

Json ParamStore::ToJson() const {
  Json out = Json::Object();
  for (size_t i = 0; i < params_.size(); ++i) {
    Json entry = Json::Object();
    entry.Set("rows", Json(params_[i].value().rows()));
    entry.Set("cols", Json(params_[i].value().cols()));
    Json values = Json::Array();
    const Matrix& m = params_[i].value();
    for (size_t k = 0; k < m.size(); ++k) values.Append(Json(m.data()[k]));
    entry.Set("values", std::move(values));
    out.Set(names_[i], std::move(entry));
  }
  return out;
}

Status ParamStore::FromJson(const Json& json) {
  for (size_t i = 0; i < params_.size(); ++i) {
    if (!json.Has(names_[i])) {
      return Status::NotFound("missing parameter '" + names_[i] + "'");
    }
    const Json& entry = json.Get(names_[i]);
    Matrix& m = params_[i].mutable_value();
    if (static_cast<size_t>(entry.Get("rows").AsInt()) != m.rows() ||
        static_cast<size_t>(entry.Get("cols").AsInt()) != m.cols()) {
      return Status::InvalidArgument("shape mismatch for parameter '" +
                                     names_[i] + "'");
    }
    const Json& values = entry.Get("values");
    if (values.size() != m.size()) {
      return Status::InvalidArgument("value count mismatch for '" +
                                     names_[i] + "'");
    }
    for (size_t k = 0; k < m.size(); ++k) {
      m.data()[k] = values.at(k).AsDouble();
    }
  }
  return Status::Ok();
}

Linear::Linear(ParamStore* store, const std::string& name, size_t in,
               size_t out, Rng* rng) {
  weight_ = store->Create(name + ".weight", in, out, rng);
  bias_ = store->Create(name + ".bias", 1, out, rng);
  bias_.mutable_value().Fill(0.0);
}

Var Linear::Forward(const Var& x) const {
  return Affine(x, weight_, bias_);
}

void Linear::ForwardValue(const Matrix& x, Matrix* out, Activation act) const {
  FusedLinear(x, weight_.value(), bias_.value(), act, out);
}

GruCell::GruCell(ParamStore* store, const std::string& name, size_t input,
                 size_t hidden, Rng* rng)
    : xz_(store, name + ".xz", input, hidden, rng),
      hz_(store, name + ".hz", hidden, hidden, rng),
      xr_(store, name + ".xr", input, hidden, rng),
      hr_(store, name + ".hr", hidden, hidden, rng),
      xn_(store, name + ".xn", input, hidden, rng),
      hn_(store, name + ".hn", hidden, hidden, rng) {}

Var GruCell::Forward(const Var& x, const Var& h) const {
  Var z = Sigmoid(Add(xz_.Forward(x), hz_.Forward(h)));
  Var r = Sigmoid(Add(xr_.Forward(x), hr_.Forward(h)));
  Var n = Tanh(Add(xn_.Forward(x), hn_.Forward(Mul(r, h))));
  // h' = (1 - z) * n + z * h  ==  n - z*n + z*h
  return Add(Sub(n, Mul(z, n)), Mul(z, h));
}

void GruCell::PackFused(Matrix* wx, Matrix* bx, Matrix* wh2,
                        Matrix* bh2) const {
  const auto pack = [](const Linear* const* gates, size_t count, Matrix* w,
                       Matrix* b) {
    const Matrix& w0 = gates[0]->weight_value();
    const size_t rows = w0.rows();
    const size_t h = w0.cols();
    w->Reshape(rows, count * h);
    b->Reshape(1, count * h);
    for (size_t g = 0; g < count; ++g) {
      const Matrix& wg = gates[g]->weight_value();
      const Matrix& bg = gates[g]->bias_value();
      for (size_t i = 0; i < rows; ++i) {
        std::memcpy(w->data() + i * count * h + g * h, wg.data() + i * h,
                    h * sizeof(double));
      }
      std::memcpy(b->data() + g * h, bg.data(), h * sizeof(double));
    }
  };
  const Linear* x_gates[] = {&xz_, &xr_, &xn_};
  pack(x_gates, 3, wx, bx);
  const Linear* h_gates[] = {&hz_, &hr_};
  pack(h_gates, 2, wh2, bh2);
}

Adam::Adam(ParamStore* store, double lr, double beta1, double beta2,
           double eps)
    : store_(store), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  for (const Var& p : store_->params()) {
    m_.emplace_back(p.value().rows(), p.value().cols());
    v_.emplace_back(p.value().rows(), p.value().cols());
    sum_.emplace_back(p.value().rows(), p.value().cols());
  }
}

void Adam::Step(std::span<const std::vector<Matrix>> grads, double clip) {
  const std::vector<Var>& params = store_->params();
  KGPIP_CHECK(m_.size() == params.size())
      << "parameters registered after optimizer construction";
  ++t_;
  const simd::Isa isa = simd::ActiveIsa();
  // Example-ordered sum, then the global norm as one serial chain over
  // parameters and elements in order.
  double norm_sq = 0.0;
  for (size_t i = 0; i < params.size(); ++i) {
    srcs_.clear();
    for (const std::vector<Matrix>& example : grads) {
      KGPIP_CHECK(example.size() == params.size());
      const Matrix& g = example[i];
      if (g.empty()) continue;
      KGPIP_CHECK(g.SameShape(sum_[i]));
      srcs_.push_back(g.data());
    }
    norm_sq = simd::SumSquaresN(isa, srcs_.data(), srcs_.size(),
                                sum_[i].data(), sum_[i].size(), norm_sq);
  }
  simd::AdamCoeffs c{};
  c.scale = 1.0;
  if (clip > 0.0) {
    const double norm = std::sqrt(norm_sq);
    if (norm > clip) c.scale = clip / norm;
  }
  c.beta1 = beta1_;
  c.beta2 = beta2_;
  c.one_minus_beta1 = 1.0 - beta1_;
  c.one_minus_beta2 = 1.0 - beta2_;
  c.bias_correction1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  c.bias_correction2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  c.lr = lr_;
  c.eps = eps_;
  for (size_t i = 0; i < params.size(); ++i) {
    Var p = params[i];
    Matrix& value = p.mutable_value();
    simd::AdamUpdateN(isa, c, sum_[i].data(), value.data(), m_[i].data(),
                      v_[i].data(), value.size());
  }
}

}  // namespace kgpip::nn
