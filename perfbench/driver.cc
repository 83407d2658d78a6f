// KGpip end-to-end benchmark driver.
//
//   perfbench_driver --workload <train_corpus|fit_mix|serve_open>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--expected <file>] [--write-expected <file>]
//
// Runs one seeded workload against the public API (core::Kgpip::Train /
// Fit, serve::Server::Submit), checks the outputs, prints every metric by
// name with its unit, and ends stdout with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the timed
// phase with obs::Tracer on, replays each layer's public calls, and reports
// the per-layer metrics instead. Exit status is non-zero when any output
// check fails. See perfbench/README.md for the workloads and metrics.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "codegraph/corpus.h"
#include "core/kgpip.h"
#include "data/benchmark_registry.h"
#include "embed/embedder.h"
#include "gen/graph_generator.h"
#include "graph4ml/graph4ml.h"
#include "graph4ml/vocab.h"
#include "ml/featurizer.h"
#include "ml/learner.h"
#include "ml/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "util/logging.h"
#include "util/request_context.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/stopwatch.h"

namespace {

using namespace kgpip;  // NOLINT(build/namespaces)
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

// ---------------------------------------------------------------------------
// Fixed workload parameters. Everything an input depends on is either one of
// these constants or derived from --seed.

/// The experiment harness's seed. Corpora, splits, model training and the
/// program's own search seeds all use it, so fit_mix repeats the quick
/// Table 2 protocol (run 0) for its slice.
///
/// --seed changes the order in which the work arrives, never the work:
/// train_corpus probes its datasets in a shuffled order, fit_mix runs its
/// Fits in a shuffled order, and serve_open starts its fixed arrival
/// schedule at a seeded offset (which also moves every request to another
/// tenant). With seeded tables, corpora or splits, which learners the
/// search reaches swung a run's cost by 12-50% between seeds, more than any
/// regression bound worth having; with the work fixed, every output is
/// exact at every seed and checked against the expected file.
constexpr uint64_t kDefaultSeed = 2022;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Passes over the timed phase per untraced run. The shared host's speed
/// swings by up to ~1.7x for seconds at a time, so each op's latency (and
/// wall_s) is the best of its passes: a pass that caught a slow period
/// does not move the result.
constexpr int kPasses = 3;
/// train_corpus's Train keeps ~2.3 cores busy and is steady over two
/// passes; a third would cost 10 s a run.
constexpr int kTrainPasses = 2;
/// Seed of the dataset slices.
constexpr uint64_t kSliceSeed = 77;
/// Trial budget of one fit_mix Fit (the harness's --quick setting).
constexpr int kFitTrials = 14;
constexpr size_t kFitSliceSize = 20;
/// Probe slice of train_corpus (zero-shot, 1 trial per dataset).
constexpr size_t kProbeSliceSize = 40;
/// serve_open traffic: open loop at kServeRate requests/s over --seconds,
/// kServeHitShare of them repeating a table from a pool of kServePool.
constexpr double kServeRate = 6.0;
constexpr double kServeHitShare = 0.4;
constexpr size_t kServePool = 6;
constexpr int kServeTenants = 4;
constexpr int kServeTrials = 8;
constexpr double kServeDeadlineS = 30.0;
/// Goodput counts OK responses within this latency of their due time.
constexpr double kServeLatencyLimitMs = 1000.0;
/// Latency charged to a failed or refused op: past every latency limit.
constexpr double kFailedLatencyMs = 1e3 * (kServeDeadlineS + 5.0);
/// Generator lateness past which a serve run is invalid (the checks'
/// message names it).
constexpr double kMaxLateMs = 250.0;
/// Tables per task type in the ml layer replay.
constexpr size_t kReplayCasesPerTask = 2;

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Fisher-Yates shuffle driven by the library's Rng (portable, unlike
/// std::shuffle's distribution).
template <class T>
void Shuffle(std::vector<T>* v, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.UniformInt(i)]);
  }
}

/// 0, 1, ..., n-1.
std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---------------------------------------------------------------------------
// Arguments.

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 8.0;
  bool trace = false;
  std::string expected_path;
  std::string write_expected_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--expected") {
      args->expected_path = value;
    } else if (key == "--write-expected") {
      args->write_expected_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

// ---------------------------------------------------------------------------
// Output checks and metrics.

class Checks {
 public:
  void Require(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!perfbench::ValidMetricName(name) || !perfbench::ValidUnit(unit) ||
        !std::isfinite(value)) {
      invalid_.push_back(name);
      return;
    }
    items_.push_back({name, value, unit});
  }
  const std::vector<std::string>& invalid() const { return invalid_; }

  void Print() const {
    for (const Item& item : items_) {
      std::printf("  %-34s %16.6f %s\n", item.name.c_str(), item.value,
                  item.unit.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", items_[i].value);
      out += (i == 0 ? "\"" : ", \"") + items_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
  std::vector<std::string> invalid_;
};

// ---------------------------------------------------------------------------
// Process and registry snapshots (deltas give per-phase counts).

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const char* const kCounters[] = {
    "pool.tasks_executed", "pool.steals",          "hpo.trials",
    "gen.lints_run",       "gen.lint_rejected",    "serve.sheds",
    "serve.deadline_cancels", "obs.trace.dropped_spans"};
const char* const kHistograms[] = {"pool.task_seconds"};

struct Snapshot {
  std::map<std::string, double> values;  // counters, then <hist>.sum/.count
  double cpu_s = 0.0;
  Clock::time_point at;

  static Snapshot Take() {
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
    Snapshot s;
    for (const char* name : kCounters) {
      s.values[name] = static_cast<double>(metrics.GetCounter(name)->value());
    }
    for (const char* name : kHistograms) {
      obs::Histogram* h = metrics.GetHistogram(name);
      s.values[std::string(name) + ".sum"] = h->sum();
      s.values[std::string(name) + ".count"] = static_cast<double>(h->count());
    }
    s.cpu_s = CpuSeconds();
    s.at = Clock::now();
    return s;
  }

  /// `this` minus `before`, key by key; plus wall and CPU seconds.
  std::map<std::string, double> Since(const Snapshot& before) const {
    std::map<std::string, double> out;
    for (const auto& [key, value] : values) {
      out[key] = value - before.values.at(key);
    }
    out["cpu_s"] = cpu_s - before.cpu_s;
    out["wall_s"] = std::chrono::duration<double>(at - before.at).count();
    return out;
  }
};

// ---------------------------------------------------------------------------
// Inputs.

/// One held-out evaluation case: the program sees only `train`.
struct Case {
  std::string dataset;
  TaskType task = TaskType::kBinaryClassification;
  Table train;
  Table test;
};

/// Generates the case tables (the harness's 75/25 split), timing data
/// generation into `generate_ms`.
Case MakeCase(const DatasetSpec& spec, std::vector<double>* generate_ms) {
  Stopwatch watch;
  Table table = GenerateDataset(spec);
  TrainTestSplit split = SplitTable(table, 0.25, kDefaultSeed);
  generate_ms->push_back(watch.ElapsedMillis());
  return Case{spec.name, spec.task, std::move(split.train),
              std::move(split.test)};
}

std::vector<const Case*> CasePointers(const std::vector<Case>& a,
                                      const std::vector<Case>& b = {}) {
  std::vector<const Case*> out;
  for (const Case& c : a) out.push_back(&c);
  for (const Case& c : b) out.push_back(&c);
  return out;
}

/// `n` datasets drawn in proportion to each task type's share of `specs`,
/// text datasets first within each task, the rest in a fixed shuffled
/// order. Returned in registry order.
std::vector<DatasetSpec> StratifiedSlice(const std::vector<DatasetSpec>& specs,
                                         size_t n) {
  std::map<int, std::vector<size_t>> by_task;
  for (size_t i = 0; i < specs.size(); ++i) {
    by_task[static_cast<int>(specs[i].task)].push_back(i);
  }
  Rng rng(kSliceSeed);
  for (auto& [task, indices] : by_task) {
    for (size_t i = indices.size(); i > 1; --i) {
      std::swap(indices[i - 1], indices[rng.UniformInt(i)]);
    }
    std::stable_partition(indices.begin(), indices.end(), [&](size_t i) {
      return specs[i].num_text > 0;
    });
  }
  std::map<int, size_t> taken;
  std::vector<size_t> picked;
  while (picked.size() < std::min(n, specs.size())) {
    // Next pick goes to the task furthest below its proportional share.
    int best = -1;
    double best_ratio = 2.0;
    for (const auto& [task, indices] : by_task) {
      if (taken[task] >= indices.size()) continue;
      const double ratio = static_cast<double>(taken[task]) /
                           static_cast<double>(indices.size());
      if (ratio < best_ratio) best_ratio = ratio, best = task;
    }
    picked.push_back(by_task[best][taken[best]++]);
  }
  std::sort(picked.begin(), picked.end());
  std::vector<DatasetSpec> out;
  for (size_t i : picked) out.push_back(specs[i]);
  return out;
}

double HeldOutScore(const ml::Pipeline& pipeline, const Table& test) {
  Result<double> score = pipeline.ScoreTable(test);
  // The paper, and the experiment harness, report floor-0 metrics.
  return score.ok() ? std::max(0.0, *score) : std::nan("");
}

// ---------------------------------------------------------------------------
// Models.

struct TrainSettings {
  int epochs = 8;
  int pipelines_per_dataset = 6;
  int noise_per_dataset = 2;

  static TrainSettings Full() { return {25, 10, 6}; }
  static TrainSettings Quick() { return {8, 6, 2}; }

  codegraph::CorpusOptions Corpus(uint64_t seed) const {
    codegraph::CorpusOptions corpus;
    corpus.pipelines_per_dataset = pipelines_per_dataset;
    corpus.noise_scripts_per_dataset = noise_per_dataset;
    corpus.seed = seed;
    return corpus;
  }
};

/// Trains a KGpip model (FLAML host) the way the experiment harness does.
Result<std::unique_ptr<core::Kgpip>> TrainModel(
    const BenchmarkRegistry& registry, const TrainSettings& settings) {
  core::KgpipConfig config;
  config.top_k = 3;
  config.generator_epochs = settings.epochs;
  auto model = std::make_unique<core::Kgpip>(config);
  obs::TraceSpan span("core.Train");
  Status status = model->Train(registry.TrainingSpecs(),
                               settings.Corpus(kDefaultSeed), kDefaultSeed);
  if (!status.ok()) return status;
  return model;
}

int64_t PipelineCount(const core::Kgpip& model) {
  return static_cast<int64_t>(model.store().AllPipelines().size());
}

/// Final epoch loss of the most recent Train (the gen.train_loss gauge).
double LastTrainLoss() {
  return obs::MetricsRegistry::Global().GetGauge("gen.train_loss")->value();
}

/// A second host over the same trained artifacts (only the HPO host
/// differs, as in the harness).
Result<std::unique_ptr<core::Kgpip>> WithHost(const core::Kgpip& trained,
                                              const std::string& optimizer) {
  core::KgpipConfig config = trained.config();
  config.optimizer = optimizer;
  auto model = std::make_unique<core::Kgpip>(config);
  Status status = model->LoadJson(trained.ToJson());
  if (!status.ok()) return status;
  return model;
}

// ---------------------------------------------------------------------------
// Expected outputs: "key value" lines, values exact.

using Expected = std::map<std::string, std::string>;

std::string Exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool ReadExpected(const std::string& path, Expected* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, value;
    if (fields >> key >> value) (*out)[key] = value;
  }
  return true;
}

// ---------------------------------------------------------------------------
// One timed phase.

struct Op {
  std::string dataset;
  TaskType task = TaskType::kBinaryClassification;
  std::string host = "flaml";
  bool ok = false;
  /// Ops feed the latency metrics when timed and the score metrics when
  /// scored: train_corpus times its Train and scores its probe fits.
  bool timed = true;
  bool scored = true;
  double latency_ms = 0.0;
  double score = std::nan("");
  // serve_open only.
  bool cache_hit = false;
  int degradation = 0;
  double queue_ms = 0.0;
  double run_ms = 0.0;
};

/// One pass of a workload's timed phase.
struct Pass {
  /// train_corpus: the Train call; fit_mix: the whole slice; serve_open:
  /// first due time to last response.
  double wall_s = 0.0;
  std::vector<Op> ops;
  obs::StageProfile stages;  // summed RunReport::stage_profile
  std::map<std::string, double> fit_s_by_host;
  int64_t hpo_failed = 0, hpo_retries = 0, hpo_quarantined = 0;
  std::map<std::string, double> deltas;  // Snapshot::Since over the pass
  double late_ms_max = 0.0;              // serve_open
  double schedule_s = 0.0;               // serve_open
  int64_t pipelines = 0;                 // trained pipelines (last Train)
  double train_loss = 0.0;

  void AddReport(const hpo::RunReport& report, const std::string& host) {
    for (const auto& stage : report.stage_profile.stages) {
      stages.Add(stage.name, stage.seconds);
    }
    fit_s_by_host[host] += report.stage_profile.total_seconds;
    hpo_failed += report.total_failures;
    hpo_retries += report.total_retries;
    hpo_quarantined += report.quarantined_scores;
  }
};

/// Keeps the tracer on for its lifetime when `on`.
class TraceScope {
 public:
  explicit TraceScope(bool on) : on_(on) {
    if (on_) obs::Tracer::Global().Enable();
  }
  ~TraceScope() {
    if (on_) obs::Tracer::Global().Disable();
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool on_;
};

// ---------------------------------------------------------------------------
// Layer replay (traced run only): the benchmark's own timed calls into each
// layer's public functions, on the workload's inputs.

struct LayerReplay {
  double corpus_ms = 0, build_ms = 0, keep_ratio = 0;
  double embed_table_ms = 0, embed_search_us = 0;
  double train_epoch_ms = 0, topk_ms = 0;
  double program_epoch_ms = 0;  // gen.train_epoch_seconds mean, for a check
  double featurize_ms = 0, predict_ms = 0;
  std::map<std::string, double> fit_ms;  // by learner
};

Status ReplayLayers(const BenchmarkRegistry& registry,
                    const core::Kgpip& model, const TrainSettings& settings,
                    const std::vector<const Case*>& cases, LayerReplay* out) {
  const uint64_t seed = kDefaultSeed;
  // codegraph + graph4ml: the corpus the model was trained on.
  const std::vector<DatasetSpec> training = registry.TrainingSpecs();
  Stopwatch watch;
  codegraph::CorpusGenerator corpus(settings.Corpus(seed));
  const std::vector<codegraph::NotebookScript> scripts =
      corpus.GenerateCorpus(training);
  out->corpus_ms = watch.ElapsedMillis();
  graph4ml::Graph4Ml store;
  watch.Reset();
  Status built = store.Build(scripts);
  out->build_ms = watch.ElapsedMillis();
  if (!built.ok()) return built;
  out->keep_ratio = scripts.empty()
                        ? 0.0
                        : static_cast<double>(store.AllPipelines().size()) /
                              static_cast<double>(scripts.size());

  // gen: the Train steps after the corpus, with a fresh generator.
  std::map<std::string, std::vector<double>> embeddings;
  for (const DatasetSpec& spec : training) {
    embeddings[spec.name] = model.embedder().Embed(GenerateDataset(spec));
  }
  const core::KgpipConfig& config = model.config();
  gen::GeneratorConfig gen_config;
  gen_config.vocab_size = graph4ml::PipelineVocab::Get().size();
  gen_config.hidden = config.hidden;
  gen_config.condition_dims = static_cast<int>(embed::TableEmbedder::kDims);
  gen_config.max_nodes = config.max_nodes;
  gen_config.learning_rate = config.learning_rate;
  gen_config.batch_size = config.generator_batch_size;
  gen::GraphGenerator generator(gen_config, seed);
  std::vector<gen::GraphExample> examples;
  for (const graph4ml::PipelineGraph* pipeline : store.AllPipelines()) {
    gen::GraphExample example;
    example.graph = pipeline->graph;
    example.condition = embeddings[pipeline->dataset_name];
    example.given_nodes = 2;
    examples.push_back(std::move(example));
  }
  const obs::Histogram* epochs =
      obs::MetricsRegistry::Global().GetHistogram("gen.train_epoch_seconds");
  out->program_epoch_ms =
      epochs->count() > 0
          ? 1e3 * epochs->sum() / static_cast<double>(epochs->count())
          : 0.0;
  Rng rng(seed ^ 0x717171);  // as Kgpip::TrainFromStore
  std::vector<double> epoch_ms;
  for (int epoch = 0; epoch < 2; ++epoch) {
    watch.Reset();
    generator.TrainEpoch(examples, &rng);
    epoch_ms.push_back(watch.ElapsedMillis());
  }
  out->train_epoch_ms = Median(epoch_ms);

  // embed + gen top-k on the workload's tables.
  std::vector<double> table_ms, search_us, topk_ms;
  for (const Case* c : cases) {
    watch.Reset();
    const std::vector<double> embedding = model.embedder().Embed(c->train);
    table_ms.push_back(watch.ElapsedMillis());
    constexpr int kSearchReps = 20;
    std::string nearest;
    watch.Reset();
    for (int r = 0; r < kSearchReps; ++r) {
      auto hits = model.index().Search(embedding, 1);
      if (!hits.ok() || hits->empty()) return Status::Internal("empty search");
      nearest = hits->front().key;
    }
    search_us.push_back(watch.ElapsedSeconds() * 1e6 / kSearchReps);
    watch.Reset();
    auto skeletons = model.PredictSkeletonsFromNearest(nearest, c->task, seed);
    topk_ms.push_back(watch.ElapsedMillis());
    if (!skeletons.ok()) return skeletons.status();
  }
  out->embed_table_ms = Mean(table_ms);
  out->embed_search_us = Mean(search_us);
  out->topk_ms = Mean(topk_ms);

  // ml: featurize, then every registered learner at default
  // hyper-parameters, on a few tables per task type.
  std::map<int, size_t> per_task;
  std::vector<double> featurize_ms, predict_ms;
  std::map<std::string, std::vector<double>> fit_ms;
  for (const Case* c : cases) {
    if (per_task[static_cast<int>(c->task)]++ >= kReplayCasesPerTask) continue;
    watch.Reset();
    ml::Featurizer featurizer;
    Status fitted = featurizer.Fit(c->train, c->task);
    if (!fitted.ok()) return fitted;
    auto data = featurizer.Transform(c->train);
    featurize_ms.push_back(watch.ElapsedMillis());
    if (!data.ok()) return data.status();
    for (const ml::LearnerInfo& info : ml::LearnerRegistry()) {
      if (!ml::LearnerSupports(info.name, c->task)) continue;
      ml::PipelineSpec spec;
      spec.learner = info.name;
      watch.Reset();
      auto pipeline = ml::Pipeline::FitOnTable(spec, c->train, c->task, seed);
      fit_ms[info.name].push_back(watch.ElapsedMillis());
      if (!pipeline.ok()) return pipeline.status();
      watch.Reset();
      auto predictions = pipeline->PredictTable(c->test);
      predict_ms.push_back(watch.ElapsedMillis());
      if (!predictions.ok()) return predictions.status();
    }
  }
  out->featurize_ms = Mean(featurize_ms);
  out->predict_ms = Mean(predict_ms);
  for (const auto& [learner, samples] : fit_ms) {
    out->fit_ms[learner] = Mean(samples);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Trace analysis: per-layer self time.

/// Layer (src/ module) a span belongs to, from its name prefix.
std::string LayerOf(const std::string& span) {
  const std::string prefix = span.substr(0, span.find('.'));
  if (prefix == "kgpip" || prefix == "fit") return "core";  // Fit stages
  if (prefix == "corpus") return "codegraph";
  if (prefix == "pool") return "util";
  if (prefix == "perfbench") return "bench";
  return prefix;
}

struct SpanStats {
  /// Self time by layer on the workload's critical-path threads (the
  /// caller thread for closed loops, the server workers for serve_open)
  /// and on every other thread (pool lanes).
  std::map<std::string, double> timeline_self_s, other_self_s;
  /// Timeline util self time (parallel regions) by the layer that opened
  /// the region: util's share is work that layer fanned out.
  std::map<std::string, double> util_in;
  std::vector<double> trial_ms;
  int main_tid = -1;
  double root_s = 0.0, root_self_s = 0.0;  // perfbench.pass on main_tid
  double serve_request_s = 0.0;            // sum of serve.request spans
};

SpanStats AnalyzeSpans(const std::vector<obs::TraceEvent>& events) {
  SpanStats stats;
  std::map<int, std::vector<const obs::TraceEvent*>> by_tid;
  std::set<int> serve_tids;
  for (const obs::TraceEvent& e : events) {
    by_tid[e.tid].push_back(&e);
    if (e.name == "perfbench.pass") stats.main_tid = e.tid;
    if (e.name == "serve.request") {
      serve_tids.insert(e.tid);
      stats.serve_request_s += e.dur_us * 1e-6;
    }
    if (e.name == "hpo.trial") stats.trial_ms.push_back(e.dur_us * 1e-3);
  }
  for (auto& [tid, spans] : by_tid) {
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->start_us != b->start_us ? a->start_us < b->start_us
                                        : a->dur_us > b->dur_us;
    });
    // Self time = duration minus the direct children's durations.
    std::vector<double> self(spans.size());
    std::vector<const obs::TraceEvent*> parent(spans.size(), nullptr);
    std::vector<size_t> stack;
    for (size_t i = 0; i < spans.size(); ++i) {
      self[i] = spans[i]->dur_us;
      while (!stack.empty() && spans[stack.back()]->start_us +
                                       spans[stack.back()]->dur_us <=
                                   spans[i]->start_us) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        self[stack.back()] -= spans[i]->dur_us;
        parent[i] = spans[stack.back()];
      }
      stack.push_back(i);
    }
    const bool timeline = serve_tids.empty() ? tid == stats.main_tid
                                             : serve_tids.count(tid) > 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      const double s = std::max(0.0, self[i]) * 1e-6;
      const std::string layer = LayerOf(spans[i]->name);
      (timeline ? stats.timeline_self_s : stats.other_self_s)[layer] += s;
      if (timeline && layer == "util" && parent[i] != nullptr) {
        stats.util_in[LayerOf(parent[i]->name)] += s;
      }
      if (spans[i]->name == "perfbench.pass" && tid == stats.main_tid) {
        stats.root_s += spans[i]->dur_us * 1e-6;
        stats.root_self_s += s;
      }
    }
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  explicit Workload(const Args& args) : args_(args) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// One set-up repetition: inputs and models (and the server).
  virtual Status SetUp() = 0;
  /// The timed phase. `traced` turns the tracer on for the timed part only.
  virtual Status RunPass(bool traced, Pass* pass) = 0;
  /// Workload-specific output checks on a finished pass.
  virtual void CheckPass(const Pass& pass, Checks* checks) const = 0;
  /// Untraced passes per run.
  virtual int passes() const { return kPasses; }
  /// Inputs of the layer replay.
  virtual const core::Kgpip& model() const = 0;
  virtual TrainSettings train_settings() const = 0;
  virtual std::vector<const Case*> cases() const = 0;
  /// Lines of the expected-output file this workload owns.
  virtual void ExpectedLines(const Pass& pass, Expected* out) const = 0;

  const BenchmarkRegistry& registry() const { return registry_; }

  std::vector<double> generate_ms;  // data layer, from set-up

 protected:
  static uint64_t fit_seed() { return kDefaultSeed * 7919; }

  const Args& args_;
  BenchmarkRegistry registry_;
};

/// Runs one call into a layer under a bench-side span named after it; spans
/// the call emits inside the program carry the same op id.
template <class Call>
auto TracedCall(const char* span, uint64_t op_id, Call&& call) {
  util::ScopedRequestContext context(op_id, "perfbench");
  obs::TraceSpan trace(span);
  return call();
}

// train_corpus: one caller, one Kgpip::Train over the full training corpus,
// then a zero-shot probe, outside wall_s, that scores the trained generator.
class TrainCorpus : public Workload {
 public:
  using Workload::Workload;

  Status SetUp() override {
    cases_.clear();
    for (const DatasetSpec& spec : StratifiedSlice(
             registry_.eval_specs(), kProbeSliceSize)) {
      cases_.push_back(MakeCase(spec, &generate_ms));
    }
    return Status::Ok();
  }

  Status RunPass(bool traced, Pass* pass) override {
    TraceScope trace(traced);
    obs::TraceSpan root("perfbench.pass");
    Op train{"TrainingSpecs"};
    train.scored = false;
    Stopwatch watch;
    auto model = TrainModel(registry_, TrainSettings::Full());
    pass->wall_s = watch.ElapsedSeconds();
    train.latency_ms = pass->wall_s * 1e3;
    train.ok = model.ok();
    pass->ops.push_back(train);
    if (!model.ok()) return model.status();
    model_ = std::move(*model);
    pass->pipelines = PipelineCount(*model_);
    pass->train_loss = LastTrainLoss();
    // Zero-shot probe: top-1 predicted skeleton, one trial, held-out score.
    // Its fits last a few ms, too short for a steady latency on a shared
    // host, so they are scored but not timed.
    std::vector<size_t> order = Iota(cases_.size());
    Shuffle(&order, args_.seed);
    for (size_t i : order) {
      const Case& c = cases_[i];
      Op op{c.dataset, c.task};
      op.timed = false;
      auto fitted = TracedCall("core.PredictSkeletons", i + 1, [&]() {
        return model_->PredictSkeletons(c.train, c.task, fit_seed());
      });
      Result<automl::AutoMlResult> result =
          fitted.ok() && !fitted->empty()
              ? TracedCall("core.FitWithSkeletons", i + 1,
                           [&]() {
                             return model_->FitWithSkeletons(
                                 {fitted->front()}, c.train, c.task,
                                 hpo::Budget(1, 1e9), fit_seed());
                           })
              : Result<automl::AutoMlResult>(
                    Status::Internal("no skeleton predicted"));
      op.ok = result.ok();
      if (op.ok) {
        pass->AddReport(result->report, "flaml");
        op.score = TracedCall("ml.ScoreTable", i + 1, [&]() {
          return HeldOutScore(result->fitted, c.test);
        });
      }
      pass->ops.push_back(op);
    }
    return Status::Ok();
  }

  void CheckPass(const Pass& pass, Checks* checks) const override {
    checks->Require(pass.pipelines > 0, "Train produced pipelines");
  }
  int passes() const override { return kTrainPasses; }
  const core::Kgpip& model() const override { return *model_; }
  TrainSettings train_settings() const override {
    return TrainSettings::Full();
  }
  std::vector<const Case*> cases() const override {
    return CasePointers(cases_);
  }
  void ExpectedLines(const Pass& pass, Expected* out) const override {
    (*out)["train_corpus.pipelines"] = std::to_string(pass.pipelines);
    (*out)["train_corpus.train_loss"] = Exact(pass.train_loss);
    for (const Op& op : pass.ops) {
      if (op.scored) {
        (*out)["train_corpus.probe_score." + op.dataset] = Exact(op.score);
      }
    }
  }

 private:
  std::vector<Case> cases_;
  std::unique_ptr<core::Kgpip> model_;
};

// fit_mix: quick Train in set-up, then one caller fits a fixed slice, each
// dataset once per host, in a closed loop.
class FitMix : public Workload {
 public:
  using Workload::Workload;

  Status SetUp() override {
    cases_.clear();
    for (const DatasetSpec& spec : StratifiedSlice(
             registry_.eval_specs(), kFitSliceSize)) {
      cases_.push_back(MakeCase(spec, &generate_ms));
    }
    auto flaml = TrainModel(registry_, TrainSettings::Quick());
    if (!flaml.ok()) return flaml.status();
    auto ask = WithHost(**flaml, "autosklearn");
    if (!ask.ok()) return ask.status();
    flaml_ = std::move(*flaml);
    ask_ = std::move(*ask);
    pipelines_ = PipelineCount(*flaml_);
    train_loss_ = LastTrainLoss();
    return Status::Ok();
  }

  Status RunPass(bool traced, Pass* pass) override {
    pass->pipelines = pipelines_;
    pass->train_loss = train_loss_;
    TraceScope trace(traced);
    obs::TraceSpan root("perfbench.pass");
    // Each dataset once per host, in an order shuffled by --seed.
    std::vector<size_t> order = Iota(cases_.size() * 2);
    Shuffle(&order, args_.seed);
    Stopwatch pass_watch;
    uint64_t op_id = 0;
    for (size_t index : order) {
      const Case& c = cases_[index / 2];
      const core::Kgpip* model = index % 2 == 0 ? flaml_.get() : ask_.get();
      Op op{c.dataset, c.task, model->config().optimizer};
      ++op_id;
      Stopwatch watch;
      auto result = TracedCall("core.Fit", op_id, [&]() {
        return model->Fit(c.train, c.task, hpo::Budget(kFitTrials, 1e9),
                          fit_seed());
      });
      op.latency_ms = watch.ElapsedMillis();
      op.ok = result.ok();
      if (op.ok) {
        pass->AddReport(result->report, op.host);
        op.score = TracedCall("ml.ScoreTable", op_id, [&]() {
          return HeldOutScore(result->fitted, c.test);
        });
      }
      pass->ops.push_back(op);
    }
    pass->wall_s = pass_watch.ElapsedSeconds();
    return Status::Ok();
  }

  void CheckPass(const Pass& pass, Checks* checks) const override {
    checks->Require(pass.pipelines > 0, "quick Train produced pipelines");
  }
  const core::Kgpip& model() const override { return *flaml_; }
  TrainSettings train_settings() const override {
    return TrainSettings::Quick();
  }
  std::vector<const Case*> cases() const override {
    return CasePointers(cases_);
  }
  void ExpectedLines(const Pass& pass, Expected* out) const override {
    (*out)["fit_mix.pipelines"] = std::to_string(pass.pipelines);
    (*out)["fit_mix.train_loss"] = Exact(pass.train_loss);
    for (const Op& op : pass.ops) {
      (*out)["fit_mix.score." + op.dataset + "." + op.host] = Exact(op.score);
    }
  }

 private:
  std::vector<Case> cases_;
  std::unique_ptr<core::Kgpip> flaml_, ask_;
  int64_t pipelines_ = 0;
  double train_loss_ = 0.0;
};

// serve_open: quick Train + Server::Start in set-up, then an open loop of
// requests from four tenants; some repeat a pooled table (result-cache hits),
// the rest are fresh tables (full fits).
class ServeOpen : public Workload {
 public:
  using Workload::Workload;

  Status SetUp() override {
    const std::vector<DatasetSpec> slice = StratifiedSlice(
        registry_.eval_specs(), kServePool + 24);
    // Pool tables come from an even spread of the slice; fresh tables
    // cycle through the whole slice with their own data seeds, so every
    // fresh table has its own content digest.
    pool_.clear();
    fresh_.clear();
    const size_t n = RequestCount();
    const size_t hits = HitCount(n);
    for (size_t i = 0; i < kServePool; ++i) {
      pool_.push_back(MakeCase(slice[i * slice.size() / kServePool],
                               &generate_ms));
    }
    for (size_t i = 0; i < n - hits; ++i) {
      DatasetSpec spec = slice[i % slice.size()];
      spec.seed = Mix(spec.seed ^ Mix(i + 1));
      fresh_.push_back(MakeCase(spec, &generate_ms));
    }
    // The schedule: exactly `hits` pool repeats (cycling through the
    // pool) among the fresh tables, in a fixed mix, started at a seeded
    // offset. A rotation keeps which requests arrive close together, and
    // with it the queueing, the same at every seed. A table is always
    // fitted with the same request seed, wherever it lands.
    std::vector<char> repeat(n, 0);
    std::fill(repeat.begin(), repeat.begin() + static_cast<long>(hits), 1);
    Shuffle(&repeat, kDefaultSeed);
    schedule_.clear();
    size_t next_hit = 0, next_fresh = 0;
    for (size_t i = 0; i < n; ++i) {
      if (repeat[i]) {
        const size_t k = next_hit++ % pool_.size();
        schedule_.push_back({&pool_[k], k});
      } else {
        schedule_.push_back({&fresh_[next_fresh], pool_.size() + next_fresh});
        ++next_fresh;
      }
    }
    std::rotate(schedule_.begin(),
                schedule_.begin() + static_cast<long>(args_.seed % n),
                schedule_.end());

    server_.reset();
    auto model = TrainModel(registry_, TrainSettings::Quick());
    if (!model.ok()) return model.status();
    model_ = std::move(*model);
    pipelines_ = PipelineCount(*model_);
    train_loss_ = LastTrainLoss();
    return StartServer();
  }

  Status RunPass(bool traced, Pass* pass) override {
    pass->pipelines = pipelines_;
    pass->train_loss = train_loss_;
    const size_t n = schedule_.size();
    std::vector<double> due(n);
    for (size_t i = 0; i < n; ++i) due[i] = static_cast<double>(i) / kServeRate;
    std::vector<std::future<serve::ServeResponse>> futures(n);
    std::vector<double> late;
    {
      TraceScope trace(traced);
      late = perfbench::RunOpenLoop(due, [&](size_t i, double) {
        obs::TraceSpan span("serve.Submit");
        futures[i] = server_->Submit(
            Request(*schedule_[i].table, i, schedule_[i].seed));
      });
      // Every submission must resolve: wait up to deadline + grace past
      // the end of the schedule, then count what is still pending.
      const auto limit =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 kServeDeadlineS +
                                 server_->options().grace_seconds + 2.0));
      for (size_t i = 0; i < n; ++i) {
        if (futures[i].wait_until(limit) != std::future_status::ready) {
          ++stuck_;
        }
      }
    }
    std::map<uint64_t, Json> audit;
    for (Json& record : server_->audit_log().Tail(n + 4 * kServePool)) {
      audit[static_cast<uint64_t>(record.Get("request_id").AsInt())] =
          std::move(record);
    }
    double last_done = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const Case& c = *schedule_[i].table;
      Op op{c.dataset, c.task};
      pass->late_ms_max = std::max(pass->late_ms_max, late[i] * 1e3);
      if (futures[i].wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        op.latency_ms = kFailedLatencyMs;
        pass->ops.push_back(op);
        continue;
      }
      serve::ServeResponse response = futures[i].get();
      const bool no_pipeline =
          response.status.ok() && response.result.fitted.spec().learner.empty();
      if (response.request_id == 0 || no_pipeline) {
        ++indefinite_;
      }
      op.ok = response.status.ok();
      op.cache_hit = response.cache_hit;
      op.degradation = response.degradation_level;
      op.latency_ms =
          perfbench::DueTimeLatency(late[i], response.latency_seconds) * 1e3;
      last_done = std::max(last_done, due[i] + op.latency_ms * 1e-3);
      auto it = audit.find(response.request_id);
      if (it != audit.end()) {
        auto micros = [&](const char* key) {
          return static_cast<double>(it->second.Get(key).AsInt());
        };
        op.queue_ms = micros("queue_wait_micros") * 1e-3;
        op.run_ms = micros("run_micros") * 1e-3;
        op.cache_hit = it->second.Get("cache_tier").AsString() == "result";
        pass->deltas["audit.total_s"] += micros("total_micros") * 1e-6;
        pass->deltas["audit.queue_s"] += op.queue_ms * 1e-3;
      } else {
        ++missing_audit_;
      }
      if (op.ok) {
        if (!op.cache_hit) pass->AddReport(response.result.report, "flaml");
        op.score = HeldOutScore(response.result.fitted, c.test);
      }
      pass->ops.push_back(op);
    }
    pass->wall_s = last_done;
    pass->schedule_s = static_cast<double>(n) / kServeRate;
    server_->BeginDrain();
    server_->AwaitDrained(5.0);
    server_->Stop();
    server_.reset();  // the next pass starts from an empty cache again
    return Status::Ok();
  }

  void CheckPass(const Pass& pass, Checks* checks) const override {
    checks->Require(pass.pipelines > 0, "quick Train produced pipelines");
    checks->Require(stuck_ == 0, "every serve submission resolved (stuck=" +
                                     std::to_string(stuck_) + ")");
    checks->Require(indefinite_ == 0, "every serve response is definite");
    checks->Require(missing_audit_ == 0, "every response has an audit record");
    checks->Require(pass.late_ms_max <= kMaxLateMs,
                    "load generator stayed within 250 ms of schedule (late " +
                        std::to_string(pass.late_ms_max) + " ms)");
  }
  const core::Kgpip& model() const override { return *model_; }
  TrainSettings train_settings() const override {
    return TrainSettings::Quick();
  }
  std::vector<const Case*> cases() const override {
    return CasePointers(pool_, fresh_);
  }
  void ExpectedLines(const Pass& pass, Expected* out) const override {
    (*out)["serve_open.pipelines"] = std::to_string(pass.pipelines);
  }

 private:
  size_t RequestCount() const {
    return static_cast<size_t>(std::llround(args_.seconds * kServeRate));
  }
  static size_t HitCount(size_t n) {
    return static_cast<size_t>(
        std::llround(static_cast<double>(n) * kServeHitShare));
  }

  serve::FitRequest Request(const Case& c, size_t i, uint64_t seed) const {
    serve::FitRequest request;
    request.tenant = "tenant-" + std::to_string(i % kServeTenants);
    request.table = c.train;
    request.task = c.task;
    request.max_trials = kServeTrials;
    request.deadline_seconds = kServeDeadlineS;
    request.seed = fit_seed() + seed;
    return request;
  }

  /// Starts a server on the model and fills the result cache with the pool
  /// (so pool repeats in the timed phase are cache hits).
  Status StartServer() {
    serve::ServeOptions options;
    options.num_workers = 2;
    options.audit_ring_entries = 4096;
    server_ = std::make_unique<serve::Server>(model_.get(), options);
    KGPIP_RETURN_IF_ERROR(server_->Start());
    for (size_t i = 0; i < pool_.size(); ++i) {
      serve::ServeResponse response =
          server_->Submit(Request(pool_[i], i, i)).get();
      if (!response.status.ok()) return response.status;
    }
    return Status::Ok();
  }

  std::vector<Case> pool_, fresh_;
  struct Scheduled {
    const Case* table;
    uint64_t seed;  // added to fit_seed()
  };
  std::vector<Scheduled> schedule_;
  std::unique_ptr<core::Kgpip> model_;
  std::unique_ptr<serve::Server> server_;
  int64_t pipelines_ = 0;
  double train_loss_ = 0.0;
  int64_t stuck_ = 0, indefinite_ = 0, missing_audit_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics from a pass.

/// What the untraced passes add up to: the i-th timed op's latency is its
/// best over the passes (a failed op counts as missing every latency
/// limit), wall_s the best pass; counts and scores cover every pass.
struct Summary {
  std::vector<double> latency_ms;
  double wall_s = 0.0;
  int64_t attempted = 0, failed = 0;
  std::vector<double> scores;
  std::map<TaskType, std::vector<double>> scores_by_task;

  explicit Summary(const std::vector<Pass>& passes) {
    wall_s = passes.front().wall_s;
    for (const Pass& pass : passes) {
      wall_s = std::min(wall_s, pass.wall_s);
      attempted += static_cast<int64_t>(pass.ops.size());
      size_t i = 0;  // index among the pass's timed ops
      for (const Op& op : pass.ops) {
        failed += op.ok ? 0 : 1;
        if (op.scored) {
          // A failed fit scores nothing.
          const double score =
              op.ok && std::isfinite(op.score) ? op.score : 0.0;
          scores.push_back(score);
          scores_by_task[op.task].push_back(score);
        }
        if (op.timed) {
          const double latency = op.ok ? op.latency_ms : kFailedLatencyMs;
          if (i >= latency_ms.size()) latency_ms.push_back(latency);
          latency_ms[i] = std::min(latency_ms[i], latency);
          ++i;
        }
      }
    }
  }
};

void AddEndToEnd(const Summary& summary, double setup_s, MetricSet* m) {
  m->Add("setup_s", setup_s, "s");
  m->Add("wall_s", summary.wall_s, "s");
  m->Add("ok_frac",
         summary.attempted == 0
             ? 0.0
             : 1.0 - static_cast<double>(summary.failed) /
                         static_cast<double>(summary.attempted),
         "ratio");
  m->Add("peak_rss_mb", PeakRssMiB(), "MiB");
  auto task_mean = [&](TaskType task) {
    auto it = summary.scores_by_task.find(task);
    return it == summary.scores_by_task.end() ? 0.0 : Mean(it->second);
  };
  m->Add("score_mean", Mean(summary.scores), "score");
  m->Add("score_binary", task_mean(TaskType::kBinaryClassification), "score");
  m->Add("score_multi", task_mean(TaskType::kMultiClassification), "score");
  m->Add("score_regression", task_mean(TaskType::kRegression), "score");
  // The median averages the middle two of an even count: per-op latencies
  // have gaps, and a nearest-rank median jumped across them with noise.
  m->Add("op_p50_ms", Median(summary.latency_ms), "ms");
  m->Add("op_tail_ms", perfbench::TailPercentile(summary.latency_ms).value,
         "ms");
}

double P50Where(const Pass& pass, bool hit, double Op::*field) {
  std::vector<double> v;
  for (const Op& op : pass.ops) {
    if (op.ok && op.cache_hit == hit) v.push_back(op.*field);
  }
  return perfbench::Percentile(v, 50.0);
}

/// Share of the traced pass's time that layer spans account for. Closed
/// loops: the caller thread's pass span minus the benchmark's own self time.
/// serve_open: per request, queue wait (audit) plus the serve.request span,
/// over the request's whole latency (audit).
double TraceCoverage(const Pass& traced, const SpanStats& spans, bool serve) {
  if (!serve) {
    return spans.root_s > 0 ? 1.0 - spans.root_self_s / spans.root_s : 0.0;
  }
  auto total = traced.deltas.find("audit.total_s");
  auto queue = traced.deltas.find("audit.queue_s");
  if (total == traced.deltas.end() || queue == traced.deltas.end() ||
      total->second <= 0) {
    return 0.0;
  }
  return (spans.serve_request_s + queue->second) / total->second;
}

void AddPerLayer(const Workload& workload, const Pass& untraced,
                 const Pass& traced, const SpanStats& spans,
                 const LayerReplay& replay, bool serve, MetricSet* m) {
  // core: Fit stage profile sums.
  for (const char* stage :
       {"hpo_search", "finalize", "evaluator_setup", "predict_skeletons"}) {
    m->Add(std::string("core.") + stage + "_s",
           untraced.stages.StageSeconds(std::string("fit.") + stage), "s");
  }
  // automl: Fit seconds by host.
  auto host_s = [&](const char* host) {
    auto it = untraced.fit_s_by_host.find(host);
    return it == untraced.fit_s_by_host.end() ? 0.0 : it->second;
  };
  m->Add("automl.fit_s.flaml", host_s("flaml"), "s");
  m->Add("automl.fit_s.autosklearn", host_s("autosklearn"), "s");
  // hpo.
  const auto& d = untraced.deltas;
  m->Add("hpo.trials", d.at("hpo.trials"), "count");
  m->Add("hpo.trial_p50_ms", perfbench::Percentile(spans.trial_ms, 50.0), "ms");
  m->Add("hpo.failed", static_cast<double>(untraced.hpo_failed), "count");
  m->Add("hpo.retries", static_cast<double>(untraced.hpo_retries), "count");
  m->Add("hpo.quarantined", static_cast<double>(untraced.hpo_quarantined),
         "count");
  // ml replay.
  m->Add("ml.featurize_ms", replay.featurize_ms, "ms");
  m->Add("ml.predict_ms", replay.predict_ms, "ms");
  for (const ml::LearnerInfo& info : ml::LearnerRegistry()) {
    auto it = replay.fit_ms.find(info.name);
    m->Add("ml.fit_ms." + info.name,
           it == replay.fit_ms.end() ? 0.0 : it->second, "ms");
  }
  // gen.
  m->Add("gen.train_epoch_ms", replay.train_epoch_ms, "ms");
  m->Add("gen.train_loss_final", untraced.train_loss, "loss");
  m->Add("gen.topk_ms", replay.topk_ms, "ms");
  const double lints = d.at("gen.lints_run");
  m->Add("gen.lint_keep_ratio",
         lints > 0 ? 1.0 - d.at("gen.lint_rejected") / lints : 1.0, "ratio");
  // embed, codegraph, graph4ml, data.
  m->Add("embed.table_ms", replay.embed_table_ms, "ms");
  m->Add("embed.search_us", replay.embed_search_us, "us");
  m->Add("codegraph.corpus_ms", replay.corpus_ms, "ms");
  m->Add("graph4ml.build_ms", replay.build_ms, "ms");
  m->Add("graph4ml.keep_ratio", replay.keep_ratio, "ratio");
  m->Add("data.generate_ms", Mean(workload.generate_ms), "ms");
  // serve (zero outside serve_open: the layer does not run there).
  std::vector<double> hit_ms, miss_ms;
  int64_t ok = 0, hits = 0, degraded = 0, good = 0;
  for (const Op& op : untraced.ops) {
    if (!serve || !op.ok) continue;
    ++ok;
    hits += op.cache_hit ? 1 : 0;
    degraded += op.degradation > 0 ? 1 : 0;
    good += op.latency_ms <= kServeLatencyLimitMs ? 1 : 0;
    (op.cache_hit ? hit_ms : miss_ms).push_back(op.latency_ms);
  }
  m->Add("serve.miss_p50_ms", perfbench::Percentile(miss_ms, 50.0), "ms");
  m->Add("serve.hit_p50_ms", perfbench::Percentile(hit_ms, 50.0), "ms");
  m->Add("serve.goodput_rps",
         serve ? static_cast<double>(good) / untraced.schedule_s : 0.0,
         "req/s");
  for (const bool hit : {true, false}) {
    const std::string tier = hit ? "hit" : "miss";
    m->Add("serve.queue_wait_ms_p50." + tier,
           P50Where(untraced, hit, &Op::queue_ms), "ms");
    m->Add("serve.run_ms_p50." + tier, P50Where(untraced, hit, &Op::run_ms),
           "ms");
  }
  m->Add("serve.cache_hit_ratio",
         ok > 0 ? static_cast<double>(hits) / static_cast<double>(ok) : 0.0,
         "ratio");
  m->Add("serve.degraded", static_cast<double>(degraded), "count");
  m->Add("serve.sheds", d.at("serve.sheds"), "count");
  m->Add("serve.deadline_cancels", d.at("serve.deadline_cancels"), "count");
  m->Add("load.late_ms_max", untraced.late_ms_max, "ms");
  // util: cores busy over the timed phase, thread pool counters.
  m->Add("process.cores_busy", d.at("cpu_s") / d.at("wall_s"), "cores");
  m->Add("pool.tasks_executed", d.at("pool.tasks_executed"), "count");
  m->Add("pool.steals", d.at("pool.steals"), "count");
  m->Add("pool.task_s", d.at("pool.task_seconds.sum"), "s");
  // obs: validity of the traced run.
  const double overhead =
      serve ? [&] {
        std::vector<double> a, b;
        for (const Op& op : untraced.ops) a.push_back(op.latency_ms);
        for (const Op& op : traced.ops) b.push_back(op.latency_ms);
        return Mean(b) / Mean(a) - 1.0;
      }()
            : traced.wall_s / untraced.wall_s - 1.0;
  m->Add("obs.trace_overhead_frac", overhead, "ratio");
  m->Add("obs.trace_coverage", TraceCoverage(traced, spans, serve), "ratio");
  m->Add("obs.trace.dropped_spans", traced.deltas.at("obs.trace.dropped_spans"),
         "count");
  m->Add("nn.isa_level",
         obs::MetricsRegistry::Global().GetGauge("nn.isa_level")->value(),
         "level");
  // Self time by layer on the critical-path threads.
  for (const char* layer : {"core", "hpo", "gen", "embed", "codegraph",
                            "graph4ml", "ml", "serve", "util", "bench"}) {
    auto it = spans.timeline_self_s.find(layer);
    m->Add(std::string("self_s.") + layer,
           it == spans.timeline_self_s.end() ? 0.0 : it->second, "s");
  }
}

void PrintSelfTimeTable(const SpanStats& spans, double coverage) {
  double total = 0.0;
  for (const auto& [layer, s] : spans.timeline_self_s) total += s;
  std::printf("\nper-layer self time (traced pass)\n");
  std::printf("  %-10s %12s %8s %14s\n", "layer", "timeline_s", "share",
              "other_threads_s");
  std::set<std::string> layers;
  for (const auto& [layer, s] : spans.timeline_self_s) layers.insert(layer);
  for (const auto& [layer, s] : spans.other_self_s) layers.insert(layer);
  for (const std::string& layer : layers) {
    auto get = [&](const std::map<std::string, double>& m) {
      auto it = m.find(layer);
      return it == m.end() ? 0.0 : it->second;
    };
    const double t = get(spans.timeline_self_s);
    std::printf("  %-10s %12.4f %7.1f%% %14.4f\n", layer.c_str(), t,
                total > 0 ? 100.0 * t / total : 0.0, get(spans.other_self_s));
  }
  for (const auto& [layer, t] : spans.util_in) {
    std::printf("    util in %-10s %10.4f %7.1f%%  (its parallel regions)\n",
                layer.c_str(), t, total > 0 ? 100.0 * t / total : 0.0);
  }
  std::printf("  coverage of traced wall time by layer spans: %.2f%%\n",
              100.0 * coverage);
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "train_corpus") {
    return std::make_unique<TrainCorpus>(args);
  }
  if (args.workload == "fit_mix") return std::make_unique<FitMix>(args);
  if (args.workload == "serve_open") return std::make_unique<ServeOpen>(args);
  return nullptr;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Checks checks;

  // Set-up repetitions alternate with the timed passes (set-up, pass,
  // set-up, pass, set-up), so the median set-up samples the shared host at
  // different moments. The first one includes process start.
  std::vector<double> setup_s;
  auto set_up = [&]() {
    const Clock::time_point start =
        setup_s.empty() ? g_process_start : Clock::now();
    Status status = workload->SetUp();
    setup_s.push_back(SecondsSince(start));
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
    }
    return status.ok();
  };

  // Timed passes: all untraced, or one untraced and one traced.
  const int untraced = args.trace ? 1 : workload->passes();
  std::vector<Pass> passes(static_cast<size_t>(args.trace ? 2 : untraced));
  for (size_t p = 0; p < passes.size(); ++p) {
    if (!set_up()) return 1;
    const bool traced = args.trace && p == 1;
    if (traced) obs::Tracer::Global().Clear();
    const Snapshot before = Snapshot::Take();
    Status status = workload->RunPass(traced, &passes[p]);
    passes[p].deltas.merge(Snapshot::Take().Since(before));
    checks.Require(status.ok(), "timed phase: " + status.ToString());
    workload->CheckPass(passes[p], &checks);
    for (const Op& op : passes[p].ops) {
      if (!op.ok) {
        std::fprintf(stderr, "op failed: %s/%s\n", op.dataset.c_str(),
                     op.host.c_str());
      }
    }
  }

  while (static_cast<int>(setup_s.size()) < kSetupReps) {
    if (!set_up()) return 1;
  }

  // Outputs: identical in every pass and equal to the expected file.
  std::vector<Expected> produced(passes.size());
  for (size_t p = 0; p < passes.size(); ++p) {
    workload->ExpectedLines(passes[p], &produced[p]);
    checks.Require(produced[p] == produced[0], "outputs repeat across passes");
  }
  if (!args.write_expected_path.empty()) {
    Expected all;
    ReadExpected(args.write_expected_path, &all);
    for (const auto& [key, value] : produced[0]) all[key] = value;
    std::ofstream out(args.write_expected_path);
    out << "# Exact outputs of every workload at every --seed, compared by\n"
        << "# perfbench/driver.cc. Regenerate only for an intended change.\n";
    for (const auto& [key, value] : all) out << key << " " << value << "\n";
  } else {
    Expected expected;
    checks.Require(ReadExpected(args.expected_path, &expected),
                   "expected-output file readable");
    for (const auto& [key, value] : produced[0]) {
      auto it = expected.find(key);
      checks.Require(it != expected.end() && it->second == value,
                     key + " = " + value + ", expected " +
                         (it == expected.end() ? "<missing>" : it->second));
    }
  }

  const Summary summary(
      std::vector<Pass>(passes.begin(), passes.begin() + untraced));
  MetricSet metrics;
  const double setup_median = Median(setup_s);
  if (!args.trace) {
    AddEndToEnd(summary, setup_median, &metrics);
  } else {
    const Pass& traced = passes[1];
    checks.Require(traced.deltas.at("obs.trace.dropped_spans") == 0,
                   "no trace spans dropped");
    const SpanStats spans = AnalyzeSpans(obs::Tracer::Global().Snapshot());
    obs::Tracer::Global().Clear();
    LayerReplay replay;
    Status replayed = ReplayLayers(workload->registry(), workload->model(),
                                   workload->train_settings(),
                                   workload->cases(), &replay);
    checks.Require(replayed.ok(), "layer replay: " + replayed.ToString());
    const bool serve = args.workload == "serve_open";
    AddPerLayer(*workload, passes[0], traced, spans, replay, serve, &metrics);
    MetricSet end_to_end;
    AddEndToEnd(summary, setup_median, &end_to_end);
    std::printf("end-to-end (untraced pass)\n");
    end_to_end.Print();
    PrintSelfTimeTable(spans, TraceCoverage(traced, spans, serve));
    std::printf("gen.train_epoch_ms: replay %.1f, program's "
                "gen.train_epoch_seconds mean %.1f\n",
                replay.train_epoch_ms, replay.program_epoch_ms);
  }
  for (const std::string& name : metrics.invalid()) {
    checks.Require(false,
                   "metric '" + name + "' has a bad name, unit or value");
  }

  const perfbench::Tail tail = perfbench::TailPercentile(summary.latency_ms);
  std::printf("\nworkload %s seed %llu: %zu ops x %zu untraced passes; "
              "op_tail_ms = p%g of %zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              summary.latency_ms.size(), static_cast<size_t>(untraced),
              tail.percentile, tail.n);
  metrics.Print();
  for (const std::string& failure : checks.failures()) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              checks.ok() ? "true" : "false",
              static_cast<long long>(summary.attempted),
              static_cast<long long>(summary.failed), metrics.Json().c_str());
  std::fflush(stdout);
  return checks.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <train_corpus|fit_mix|serve_open> "
                 "--seed <n> --seconds <s> --trace <0|1> [--expected <file>] "
                 "[--write-expected <file>]\n",
                 argv[0]);
    return 2;
  }
  SetLogLevel(LogLevel::kWarning);
  return Run(args);
}
