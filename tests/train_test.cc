// Generator-training oracle.
//
//   - Golden values: a fixed synthetic corpus trained for a few epochs
//     must reproduce recorded per-epoch losses and an FNV-1a hash of the
//     final weight bytes exactly, inline and on a 4-lane pool. The
//     numbers were recorded from the unfused tape (separate MatMul and
//     row-broadcast bias nodes, scalar backward GEMMs, per-example
//     gradient copies), so they pin every later training optimization to
//     the original arithmetic bit for bit.
//   - Op oracle: the fused Linear node's gradients for x, W and b match a
//     MatMul + row-broadcast composition whose backward is built from the
//     scalar reference loops below, memcmp-exact, at every ISA level.

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/graph_generator.h"
#include "graph4ml/vocab.h"
#include "nn/autograd.h"
#include "nn/layers.h"
#include "nn/simd_kernels.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace kgpip {
namespace {

using graph4ml::PipelineVocab;
using nn::Matrix;
using nn::Var;
using nn::VarNode;

// ---- Golden training run -------------------------------------------------

/// 22 random DAG pipelines (not a multiple of the batch, so the last
/// minibatch is ragged): 2-7 nodes, a chain plus occasional skip edges
/// (several incoming sources exercise choose-node), one or two given
/// nodes, and a content condition on two thirds of them.
std::vector<gen::GraphExample> SyntheticCorpus() {
  const int vocab = PipelineVocab::Get().size();
  Rng rng(2024);
  std::vector<gen::GraphExample> corpus;
  for (int e = 0; e < 22; ++e) {
    gen::GraphExample ex;
    const int nodes = 2 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    ex.graph.node_types.push_back(PipelineVocab::kDatasetType);
    for (int i = 1; i < nodes; ++i) {
      const uint64_t type = rng.UniformInt(static_cast<uint64_t>(vocab - 1));
      ex.graph.node_types.push_back(1 + static_cast<int>(type));
      ex.graph.edges.emplace_back(i - 1, i);
      if (i >= 2 && rng.UniformInt(uint64_t{3}) == 0) {
        ex.graph.edges.emplace_back(
            static_cast<int>(rng.UniformInt(static_cast<uint64_t>(i - 1))), i);
      }
    }
    if (e % 3 != 2) {
      for (int d = 0; d < 3; ++d) ex.condition.push_back(rng.Normal());
    }
    ex.given_nodes = 1 + static_cast<int>(rng.UniformInt(uint64_t{2}));
    corpus.push_back(std::move(ex));
  }
  return corpus;
}

gen::GeneratorConfig GoldenConfig(int batch_size, int hidden) {
  gen::GeneratorConfig config;
  config.vocab_size = PipelineVocab::Get().size();
  config.hidden = hidden;
  config.prop_rounds = 2;
  config.max_nodes = 8;
  config.condition_dims = 3;
  config.learning_rate = 5e-3;
  config.batch_size = batch_size;
  return config;
}

/// FNV-1a over the raw bytes of every weight, in serialization order
/// (JSON numbers print with 17 significant digits, so they round-trip).
uint64_t WeightHash(const gen::GraphGenerator& generator) {
  std::string bytes;
  const Json json = generator.ToJson();
  for (const auto& [name, entry] : json.Get("weights").members()) {
    bytes += name;
    for (const Json& v : entry.Get("values").items()) {
      const double d = v.AsDouble();
      bytes.append(reinterpret_cast<const char*>(&d), sizeof(d));
    }
  }
  return Fnv1a64(bytes);
}

struct TrainRun {
  std::vector<double> losses;
  uint64_t hash = 0;
};

TrainRun Train(int batch_size, int hidden, int epochs, int threads) {
  util::ThreadPool::Configure(threads);
  gen::GraphGenerator generator(GoldenConfig(batch_size, hidden), 17);
  const std::vector<gen::GraphExample> corpus = SyntheticCorpus();
  Rng rng(5);
  TrainRun run;
  for (int e = 0; e < epochs; ++e) {
    run.losses.push_back(generator.TrainEpoch(corpus, &rng));
  }
  run.hash = WeightHash(generator);
  util::ThreadPool::Configure(0);
  return run;
}

uint64_t Bits(double d) {
  uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

void ExpectGolden(const TrainRun& run, const std::vector<uint64_t>& loss_bits,
                  uint64_t hash) {
  ASSERT_EQ(run.losses.size(), loss_bits.size());
  for (size_t e = 0; e < loss_bits.size(); ++e) {
    EXPECT_EQ(Bits(run.losses[e]), loss_bits[e])
        << "epoch " << e << " loss " << run.losses[e];
  }
  EXPECT_EQ(run.hash, hash);
}

// Hidden width 10 is ragged against every vector width; 32 is the
// production width (KgpipConfig::hidden), where every panel is full.
TEST(TrainGoldenTest, Batch4Hidden10MatchesRecordedLossesAndWeights) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectGolden(Train(/*batch_size=*/4, /*hidden=*/10, /*epochs=*/3, threads),
                 {0x4034e0a098cf8c79, 0x4033ce2d6ed5da35, 0x4032c77bc342d913},
                 0x55ed0f492d12d9d7);
  }
}

TEST(TrainGoldenTest, Batch4Hidden32MatchesRecordedLossesAndWeights) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectGolden(Train(/*batch_size=*/4, /*hidden=*/32, /*epochs=*/2, threads),
                 {0x403507dbe49f2cec, 0x4032c6e084dc6d8c}, 0x0cab67c955bde3a8);
  }
}

TEST(TrainGoldenTest, Batch1MatchesRecordedLossesAndWeights) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectGolden(Train(/*batch_size=*/1, /*hidden=*/10, /*epochs=*/2, threads),
                 {0x40345ddfa19c41c9, 0x403291f9668103c3}, 0x989edd547f5f3f39);
  }
}

// ---- Op oracle -------------------------------------------------------------

// The pre-fusion tape's scalar backward GEMMs, verbatim: each fills a
// zeroed temporary that the caller then adds into the gradient.
Matrix RefTransposeMatMul(const Matrix& a, const Matrix& b) {  // A^T * B
  Matrix c(a.cols(), b.cols());
  for (size_t k = 0; k < a.rows(); ++k) {
    const double* arow = a.data() + k * a.cols();
    const double* brow = b.data() + k * b.cols();
    for (size_t i = 0; i < a.cols(); ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      double* crow = c.data() + i * c.cols();
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

Matrix RefMatMulTranspose(const Matrix& a, const Matrix& b) {  // A * B^T
  Matrix c(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.data() + i * a.cols();
    for (size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.data() + j * b.cols();
      double s = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) s += arow[k] * brow[k];
      c(i, j) = s;
    }
  }
  return c;
}

Matrix& RefGradOf(const std::shared_ptr<VarNode>& node) {
  node->EnsureGrad();
  return node->grad;
}

Var RefMatMul(const Var& a, const Var& b) {
  return nn::MakeOp(
      Matrix::MatMul(a.value(), b.value()), {a, b}, [](VarNode& self) {
        auto& pa = self.parents[0];
        auto& pb = self.parents[1];
        if (pa->requires_grad || pa->backward) {
          RefGradOf(pa).AddInPlace(RefMatMulTranspose(self.grad, pb->value));
        }
        if (pb->requires_grad || pb->backward) {
          RefGradOf(pb).AddInPlace(RefTransposeMatMul(pa->value, self.grad));
        }
      });
}

Var RefAddRowBroadcast(const Var& a, const Var& row) {
  Matrix value = a.value();
  for (size_t i = 0; i < value.rows(); ++i) {
    for (size_t j = 0; j < value.cols(); ++j) value(i, j) += row.value()(0, j);
  }
  return nn::MakeOp(std::move(value), {a, row}, [](VarNode& self) {
    RefGradOf(self.parents[0]).AddInPlace(self.grad);
    Matrix& rg = RefGradOf(self.parents[1]);
    for (size_t i = 0; i < self.grad.rows(); ++i) {
      for (size_t j = 0; j < self.grad.cols(); ++j) {
        rg(0, j) += self.grad(i, j);
      }
    }
  });
}

/// Random values with ~1 in 5 exact zeros (the dW zero-skip path) and
/// optionally whole zero rows.
Matrix RandomWithZeros(size_t rows, size_t cols, Rng* rng,
                       bool zero_first_row) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      if ((zero_first_row && i == 0) || rng->UniformInt(uint64_t{5}) == 0) {
        continue;
      }
      m(i, j) = rng->Normal();
    }
  }
  return m;
}

void ExpectBitEqual(const Matrix& ref, const Matrix& got,
                    const std::string& what) {
  ASSERT_TRUE(ref.SameShape(got)) << what;
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(Bits(ref.data()[i]), Bits(got.data()[i]))
        << what << " element " << i << ": " << ref.data()[i] << " vs "
        << got.data()[i];
  }
}

/// One case of the oracle: a shared Linear (W, b) applied to a trainable
/// input x1, to a constant input x2, and — when square — to tanh of its
/// own output; plus the tiling MatMul op (ones * row, as the choose-node
/// decision builds it). The loss masks gradients with a ReLU and a
/// constant weight that carries zeros (and optionally an Inf).
void CheckLinearCase(size_t n, size_t in, size_t out, uint64_t seed,
                     bool with_inf) {
  SCOPED_TRACE("n=" + std::to_string(n) + " in=" + std::to_string(in) +
               " out=" + std::to_string(out) +
               (with_inf ? " inf" : ""));
  Rng rng(seed);
  nn::ParamStore store;
  nn::Linear linear(&store, "lin", in, out, &rng);
  const Var& w = store.params()[0];
  const Var& b = store.params()[1];
  for (size_t j = 0; j < out; ++j) b.node()->value(0, j) = rng.Normal();
  const Matrix x1 = RandomWithZeros(n, in, &rng, /*zero_first_row=*/n > 1);
  const Matrix x2 = RandomWithZeros(n, in, &rng, false);
  Matrix weight = RandomWithZeros(n, out, &rng, false);
  if (with_inf) weight(0, 0) = std::numeric_limits<double>::infinity();

  const auto build = [&](const std::function<Var(const Var&)>& lin,
                         const std::function<Var(const Var&, const Var&)>&
                             matmul,
                         const Var& x) {
    Var s = Add(lin(x), lin(Var(x2)));
    if (in == out) s = Add(s, lin(Tanh(lin(x))));
    Var tiled = matmul(Var(Matrix(n, 1, 1.0)), GatherRows(s, {n - 1}));
    s = Add(s, Tanh(tiled));
    return SumAll(Mul(Relu(s), Var(weight)));
  };

  Var x_fused(x1, /*requires_grad=*/true);
  nn::Backward(build([&](const Var& v) { return linear.Forward(v); },
                     [](const Var& a, const Var& c) { return MatMul(a, c); },
                     x_fused));

  Var w_ref(w.value(), true);
  Var b_ref(b.value(), true);
  Var x_ref(x1, true);
  nn::Backward(build(
      [&](const Var& v) {
        return RefAddRowBroadcast(RefMatMul(v, w_ref), b_ref);
      },
      [](const Var& a, const Var& c) { return RefMatMul(a, c); }, x_ref));

  ExpectBitEqual(x_ref.grad(), x_fused.grad(), "dx");
  ExpectBitEqual(w_ref.grad(), w.grad(), "dW");
  ExpectBitEqual(b_ref.grad(), b.grad(), "db");
}

TEST(LinearOracleTest, FusedGradientsMatchUnfusedScalarComposition) {
  std::vector<nn::simd::Isa> levels = {nn::simd::Isa::kScalar};
  for (nn::simd::Isa isa : {nn::simd::Isa::kAvx2, nn::simd::Isa::kAvx512}) {
    if (nn::simd::IsaSupported(isa)) levels.push_back(isa);
  }
  const nn::simd::Isa saved = nn::simd::ActiveIsa();
  const size_t shapes[][3] = {{1, 5, 13}, {1, 8, 8},  {1, 64, 1},
                              {2, 33, 1}, {3, 7, 7},  {4, 10, 3},
                              {5, 9, 9},  {6, 16, 17}, {9, 32, 32},
                              {12, 64, 32}, {7, 32, 33}};
  for (nn::simd::Isa isa : levels) {
    ASSERT_EQ(nn::simd::ForceIsa(isa), isa);
    SCOPED_TRACE(nn::simd::IsaName(isa));
    uint64_t seed = 1;
    for (const auto& shape : shapes) {
      for (bool with_inf : {false, true}) {
        CheckLinearCase(shape[0], shape[1], shape[2], seed++, with_inf);
        if (HasFatalFailure()) break;
      }
      if (HasFatalFailure()) break;
    }
    if (HasFatalFailure()) break;
  }
  nn::simd::ForceIsa(saved);
}

}  // namespace
}  // namespace kgpip
