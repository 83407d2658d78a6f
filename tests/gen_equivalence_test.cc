// Equivalence suite for the tape-free decoder: every path the
// serve-time decoder takes must be byte-identical to the autograd tape
// reference, deterministic across thread counts, and allocation-free in
// steady state.

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/graph_generator.h"
#include "graph4ml/graph4ml.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace kgpip::gen {
namespace {

using graph4ml::PipelineVocab;
using graph4ml::TypedGraph;

GeneratorConfig SmallConfig() {
  GeneratorConfig config;
  config.vocab_size = PipelineVocab::Get().size();
  config.hidden = 24;
  config.prop_rounds = 2;
  config.max_nodes = 8;
  config.condition_dims = 2;
  config.learning_rate = 5e-3;
  return config;
}

std::vector<GraphExample> TwoModeExamples(int copies) {
  const PipelineVocab& vocab = PipelineVocab::Get();
  const int scaler = vocab.TypeOf("standard_scaler");
  const int logreg = vocab.TypeOf("logistic_regression");
  const int xgb = vocab.TypeOf("xgboost");
  std::vector<GraphExample> examples;
  for (int c = 0; c < copies; ++c) {
    GraphExample a;
    a.graph.node_types = {PipelineVocab::kDatasetType,
                          PipelineVocab::kReadCsvType, scaler, logreg};
    a.graph.edges = {{0, 1}, {1, 2}, {2, 3}};
    a.condition = {1.0, 0.0};
    a.given_nodes = 2;
    examples.push_back(a);

    GraphExample b;
    b.graph.node_types = {PipelineVocab::kDatasetType,
                          PipelineVocab::kReadCsvType, xgb};
    b.graph.edges = {{0, 1}, {1, 2}};
    b.condition = {0.0, 1.0};
    b.given_nodes = 2;
    examples.push_back(b);
  }
  return examples;
}

TypedGraph SeedGraph() {
  TypedGraph seed;
  seed.node_types = {PipelineVocab::kDatasetType,
                     PipelineVocab::kReadCsvType};
  seed.edges = {{0, 1}};
  return seed;
}

void ExpectSameGenerated(const GeneratedGraph& a, const GeneratedGraph& b) {
  EXPECT_EQ(a.graph.node_types, b.graph.node_types);
  EXPECT_EQ(a.graph.edges, b.graph.edges);
  EXPECT_EQ(a.log_prob, b.log_prob);  // exact, not approximate
}

TEST(GenEquivalenceTest, TapeFreeDecodeIsByteIdenticalToTape) {
  // (max_nodes, training epochs): the default cap and a 30-node cap,
  // whose longer decodes reach deep edge loops and many propagation
  // rounds over a growing graph. Trained weights mostly stop on their own
  // after a few nodes; untrained (Xavier-noise) weights rarely pick
  // STOP, so they run into the cap.
  const std::pair<int, int> kCases[] = {{8, 3}, {30, 3}, {30, 0}};
  for (const auto& [max_nodes, epochs] : kCases) {
    GeneratorConfig config = SmallConfig();
    config.max_nodes = max_nodes;
    GraphGenerator generator(config, 7);
    auto examples = TwoModeExamples(2);
    Rng train_rng(1);
    for (int epoch = 0; epoch < epochs; ++epoch) {
      generator.TrainEpoch(examples, &train_rng);
    }
    const TypedGraph seed = SeedGraph();
    // Both training modes' conditions steer the decode differently.
    for (const std::vector<double>& condition :
         {std::vector<double>{1.0, 0.0}, std::vector<double>{0.0, 1.0}}) {
      // Greedy, tempered-below-1, exactly-1, and tempered-above-1 all
      // take different sampling code paths; every one must agree
      // bit-for-bit.
      for (double temperature : {0.0, 0.7, 1.0, 1.5}) {
        for (uint64_t s = 0; s < 8; ++s) {
          Rng fast_rng(s * 13 + 5);
          Rng tape_rng(s * 13 + 5);
          GeneratedGraph fast =
              generator.Generate(seed, condition, &fast_rng, temperature);
          GeneratedGraph tape = generator.GenerateTape(seed, condition,
                                                       &tape_rng, temperature);
          ExpectSameGenerated(fast, tape);
          // Both paths must consume the same number of RNG draws, or
          // later callers sharing the stream would silently diverge.
          EXPECT_EQ(fast_rng.Next(), tape_rng.Next())
              << "RNG consumption diverged at max_nodes=" << max_nodes
              << " epochs=" << epochs << " t=" << temperature
              << " seed=" << s;
        }
      }
    }
  }
}

TEST(GenEquivalenceTest, GenerateTopKIsDeterministicAcrossThreadCounts) {
  GeneratorConfig config = SmallConfig();
  const TypedGraph seed = SeedGraph();
  const std::vector<double> condition = {1.0, 0.0};
  const size_t k = 9;
  auto decode_with = [&](int threads) {
    util::ThreadPool::Configure(threads);
    GraphGenerator generator(config, 7);
    Rng rng(42);
    return generator.GenerateTopK(seed, condition, k, &rng,
                                  /*temperature=*/0.9);
  };
  std::vector<GeneratedGraph> t1 = decode_with(1);
  std::vector<GeneratedGraph> t2 = decode_with(2);
  std::vector<GeneratedGraph> t4 = decode_with(4);
  util::ThreadPool::Configure(0);
  ASSERT_EQ(t1.size(), k);
  ASSERT_EQ(t2.size(), k);
  ASSERT_EQ(t4.size(), k);
  for (size_t i = 0; i < k; ++i) {
    ExpectSameGenerated(t1[i], t2[i]);
    ExpectSameGenerated(t1[i], t4[i]);
  }
  // And the candidates are genuine decodes: seed prefix preserved.
  for (const GeneratedGraph& g : t1) {
    ASSERT_GE(g.graph.node_types.size(), seed.node_types.size());
    EXPECT_EQ(g.graph.node_types[0], seed.node_types[0]);
    EXPECT_EQ(g.graph.node_types[1], seed.node_types[1]);
  }
}

TEST(GenEquivalenceTest, SteadyStateDecodeAllocatesNothing) {
  GraphGenerator generator(SmallConfig(), 7);
  const TypedGraph seed = SeedGraph();
  const std::vector<double> condition = {1.0, 0.0};
  obs::Counter* allocs =
      obs::MetricsRegistry::Global().GetCounter("gen.generate_allocs");
  Rng rng(3);
  // Cold decode: the constructor pre-sizes the arena for max_nodes, so
  // even the first decode should not grow any buffer.
  generator.Generate(seed, condition, &rng, 0.9);
  const int64_t after_cold = allocs->value();
  for (int i = 0; i < 5; ++i) {
    generator.Generate(seed, condition, &rng, 0.9);
  }
  EXPECT_EQ(allocs->value(), after_cold)
      << "warm decodes grew workspace buffers";
}

TEST(GenEquivalenceTest, CrossCheckModeVerifiesEveryDecode) {
  GeneratorConfig config = SmallConfig();
  config.cross_check = true;
  GraphGenerator generator(config, 7);
  const TypedGraph seed = SeedGraph();
  const std::vector<double> condition = {1.0, 0.0};
  // KGPIP_CHECK aborts on divergence, so surviving the calls *is* the
  // assertion; run both greedy and sampled paths.
  Rng rng(17);
  GeneratedGraph greedy = generator.Generate(seed, condition, &rng, 0.0);
  GeneratedGraph sampled = generator.Generate(seed, condition, &rng, 1.0);
  EXPECT_FALSE(greedy.graph.node_types.empty());
  EXPECT_FALSE(sampled.graph.node_types.empty());
}

}  // namespace
}  // namespace kgpip::gen
