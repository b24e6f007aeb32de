// Repository benchmark binary: four end-to-end workloads driven only through
// the library's public API.
//
//   rdd_bench --workload <name> --seed <u64> --seconds <s> --out <dir>
//             [--trace] [--smoke]
//
// Writes <dir>/result.json, plus <dir>/trace.json with --trace; run.py turns
// them into the benchmark's metrics (see README.md for the dictionary).
//
// A run does a fixed amount of work derived from --seconds (each workload's
// operation count is sized so the measured part takes about that long on a
// 4-core x86 machine), never "as much as fits": the parent and the change of
// a comparison then run identical work, and quality numbers do not depend
// on speed.
//
// Without --trace: set up three times from scratch (setup_s is the median),
// then run the measured pass with tracing and metrics off. With --trace: set
// up and run the pass untraced twice (a warm-up, then the base), then once
// more with the tracer and the metrics registry on; the traced pass gives the
// per-layer numbers, and its ratio to the base is the tracing overhead.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/distill.h"
#include "core/rdd_trainer.h"
#include "data/checkpoint.h"
#include "data/citation_gen.h"
#include "data/serialize.h"
#include "load_gen.h"
#include "memory/buffer_pool.h"
#include "models/graph_model.h"
#include "observe/metrics.h"
#include "observe/trace.h"
#include "parallel/parallel_for.h"
#include "serve/daemon.h"
#include "serve/predictor.h"
#include "stats.h"
#include "stream/graph_delta.h"
#include "stream/incremental_rdd.h"
#include "stream/streaming_graph.h"
#include "util/proc_stats.h"

namespace rdd::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  std::string out_dir;
  bool trace = false;
  bool smoke = false;
};

/// The run's output document: named numbers, named output checks and the
/// operation counts, written as one flat JSON object for run.py.
class Result {
 public:
  void Set(const std::string& name, double value) {
    values_.emplace_back(name, value);
  }
  void Check(const std::string& name, bool ok) {
    checks_.emplace_back(name, ok);
    if (!ok) std::printf("CHECK FAILED: %s\n", name.c_str());
  }
  void Count(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Takes over the checks and counts, not the values, of another pass.
  void MergeChecks(const Result& other) {
    checks_.insert(checks_.end(), other.checks_.begin(), other.checks_.end());
    Count(other.attempted_, other.failed_);
  }

  /// Returns false when the file cannot be opened, a write comes up short
  /// or the close fails, so a full disk never passes for a short report.
  bool WriteTo(const std::string& path) const {
    std::string json = "{\"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed_) +
                       ",\n\"checks\": {";
    for (size_t i = 0; i < checks_.size(); ++i) {
      json += (i ? ", \"" : "\"") + checks_[i].first +
              (checks_[i].second ? "\": true" : "\": false");
    }
    json += "},\n\"values\": {";
    for (size_t i = 0; i < values_.size(); ++i) {
      char number[64];
      if (std::isfinite(values_[i].second)) {
        std::snprintf(number, sizeof(number), "%.17g", values_[i].second);
      } else {
        std::snprintf(number, sizeof(number), "null");
      }
      json += (i ? ",\n\"" : "\"") + values_[i].first + "\": " + number;
    }
    json += "}}\n";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool wrote = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    const bool closed = std::fclose(f) == 0;
    return wrote && closed;
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::pair<std::string, bool>> checks_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// ---- Traced wrappers around the public calls each layer exposes ----------
//
// The bench-side spans ("bench/...") time each layer from outside; run.py
// rolls them up together with the library's own spans.

Dataset Generate(const CitationGenConfig& config, uint64_t seed) {
  observe::TraceSpan span("bench/generate");
  return GenerateCitationNetwork(config, seed);
}

GraphContext BuildContext(const Dataset& dataset) {
  observe::TraceSpan span("bench/context_build");
  return GraphContext::FromDataset(dataset);
}

bool SaveCkpt(const Checkpoint& checkpoint, const std::string& path) {
  observe::TraceSpan span("bench/checkpoint_save");
  return SaveCheckpoint(checkpoint, path).ok();
}

bool SaveData(const Dataset& dataset, const std::string& path) {
  observe::TraceSpan span("bench/dataset_save");
  return SaveDataset(dataset, path).ok();
}

StatusOr<Predictor> LoadPredictor(const std::string& path,
                                  const GraphContext& context) {
  observe::TraceSpan span("bench/checkpoint_load");
  return Predictor::FromCheckpoint(path, context);
}

/// Answers `nodes` one single-node query each on an in-process Predictor, as
/// an application embedding the library serves single requests, closed loop;
/// returns the latency of each answered query in microseconds. A query that
/// errs counts in `*failed`; an answer that differs from `expected`, the
/// batched answer for the same nodes, clears `*same` (the Predictor is
/// batch-invariant).
std::vector<double> SingleNodeQueries(Predictor* predictor,
                                      const std::vector<int64_t>& nodes,
                                      const std::vector<int64_t>& expected,
                                      bool* same, int64_t* failed) {
  std::vector<double> latency_us;
  latency_us.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const Clock::time_point start = Clock::now();
    StatusOr<std::vector<int64_t>> label = predictor->PredictLabels({nodes[i]});
    const double us = 1e6 * SecondsSince(start);
    if (!label.ok()) {
      ++*failed;
      continue;
    }
    latency_us.push_back(us);
    *same &= label->size() == 1 && (*label)[0] == expected[i];
  }
  return latency_us;
}

double LabelAccuracy(const std::vector<int64_t>& predicted,
                     const Dataset& dataset,
                     const std::vector<int64_t>& nodes) {
  int64_t correct = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    correct += predicted[i] == dataset.labels[static_cast<size_t>(nodes[i])];
  }
  return nodes.empty() ? 0.0
                       : static_cast<double>(correct) /
                             static_cast<double>(nodes.size());
}

/// "n=<count> p50 <x> us", plus the highest tail percentile the sample
/// supports, for the human-readable lines.
std::string LatencySummary(const std::vector<double>& us) {
  char text[128];
  const int len = std::snprintf(text, sizeof(text), "n=%zu p50 %.1f us",
                                us.size(), Percentile(us, 50.0));
  const double tail = SupportedTailPercentile(us.size());
  if (tail > 0.0) {
    std::snprintf(text + len, sizeof(text) - static_cast<size_t>(len),
                  " p%g %.1f us", tail, Percentile(us, tail));
  }
  return text;
}

bool SameSparse(const SparseMatrix& a, const SparseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         a.row_ptr() == b.row_ptr() && a.col_idx() == b.col_idx() &&
         a.values().size() == b.values().size() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(float)) == 0;
}

// Epoch budgets are fixed in every workload: patience equals the budget, so
// early stopping never ends a run, while the best-validation weights are
// still restored. With early stopping the work of a pipeline follows the
// data (36 to 140 epochs per model), and the median of a run moved 12%
// between seeds.

/// Paper defaults (Sec. 5.1) otherwise: T students of a 2-layer 16-unit GCN,
/// p = 40, beta = 10, Adam at lr 0.01 with weight decay 5e-4. The 60-epoch
/// budget covers where early stopping (patience 20) ended a Cora-like
/// student: 36 to 55 epochs.
RddConfig PaperRddConfig(int num_students, float gamma) {
  RddConfig config;
  config.num_base_models = num_students;
  config.gamma_initial = gamma;
  config.beta = 10.0f;
  config.train.lr = 0.01f;
  config.train.weight_decay = 5e-4f;
  config.train.max_epochs = 60;
  config.train.patience = 60;
  return config;
}

/// GNN-to-MLP distillation with the library defaults but a fixed budget of
/// 100 epochs (early stopping used 85 to 140).
DistillConfig MlpDistillConfig() {
  DistillConfig config;
  config.train.lr = 0.01f;
  config.train.max_epochs = 100;
  config.train.patience = 100;
  return config;
}

// cora_pipeline, stream_online, serve_mlp's set-up and web_minibatch's
// single-node queries run on one thread. At 4 threads a Cora pipeline opens
// ~25k parallel regions, a Pubmed delta thousands, each too small to hide
// the cross-core wake-up of the pool's workers; on a shared VM that latency
// moved the medians of identical runs by 8-14% (one thread: under 2%) for a
// 1.3-1.5x speed-up, and the p50 of a web query between 1.8 and 3.3 ms. The
// parallel runtime is measured where its kernels are large: web_minibatch's
// training runs on 4 threads.
constexpr int kSmallGraphThreads = 1;

/// Algorithm 1-2 guard quantities over the distilling students (t >= 1) of
/// full-graph RDD runs: reliable nodes over all nodes, reliable edges over
/// all edges.
struct ReliabilityTally {
  double node_frac_sum = 0.0;
  double edge_frac_sum = 0.0;
  int64_t students = 0;

  void Add(const RddResult& rdd, const Dataset& dataset) {
    for (size_t t = 1; t < rdd.diagnostics.size(); ++t) {
      node_frac_sum += static_cast<double>(rdd.diagnostics[t].reliable_nodes) /
                       static_cast<double>(dataset.NumNodes());
      edge_frac_sum += static_cast<double>(rdd.diagnostics[t].reliable_edges) /
                       static_cast<double>(
                           std::max<int64_t>(1, dataset.graph.num_edges()));
      ++students;
    }
  }
  void Report(Result* result) const {
    const double n = static_cast<double>(std::max<int64_t>(students, 1));
    result->Set("rdd.reliable_node_frac", node_frac_sum / n);
    result->Set("rdd.reliable_edge_frac", edge_frac_sum / n);
  }
};

/// Values serve_mlp measures in each of its set-ups. They outlive the
/// Workload object each set-up builds, so Run() reports their medians.
struct SetupSamples {
  std::vector<double> accuracy, train_s, pipeline_s;
};

/// One workload. Run() constructs a fresh object per set-up, so a
/// set-up always starts from nothing; the destructor stops what it started.
class Workload {
 public:
  explicit Workload(const Options& options) : options_(options) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the state the measured pass starts from; output checks of the
  /// set-up go to `result`.
  virtual void Setup(uint64_t seed, Result* result) = 0;

  /// Runs the measured pass and records the end-to-end values. Returns the
  /// busy seconds of the pass, the base of the tracing-overhead ratio.
  virtual double Run(Result* result) = 0;

  /// Per-layer values only the workload knows, after a traced pass. Every
  /// workload reports every one; a layer it does not exercise reads 0.
  void LayerValues(Result* result) const {
    tally_.Report(result);
    result->Set("core.distill_epochs", MeanOrZero(distill_epochs_));
    result->Set("stream.affected_frac", MeanOrZero(affected_frac_));
    result->Set("stream.target_frac", MeanOrZero(target_frac_));
    result->Set("serve.swap_busy", static_cast<double>(swap_busy_));
    result->Set("serve.rtt_mean_us", MeanOrZero(rtt_us_));
    const double tail = SupportedTailPercentile(send_wait_us_.size());
    result->Set("serve.send_wait_tail_us",
                tail > 0.0 ? Percentile(send_wait_us_, tail) : 0.0);
    result->Set("serve.unpinned_p50_us",
                unpinned_us_.empty() ? 0.0 : Percentile(unpinned_us_, 50.0));
  }

 protected:
  static double MeanOrZero(const std::vector<double>& v) {
    return v.empty() ? 0.0 : Mean(v);
  }
  std::string Path(const std::string& name) const {
    return options_.out_dir + "/" + name;
  }
  /// A file name never used before in this run. Checkpoints are written to
  /// fresh names, never renamed over an older file: on ext4, replacing a
  /// file by rename forces the new file's data out to disk, and that flush
  /// (0-200 ms, bimodal) would measure the disk, not the library.
  std::string FreshPath(const std::string& stem, const char* extension) {
    static int64_t counter = 0;
    return Path(stem + "-" + std::to_string(counter++) + extension);
  }

  const Options& options_;
  ReliabilityTally tally_;
  std::vector<double> distill_epochs_;
  std::vector<double> affected_frac_, target_frac_;
  int64_t swap_busy_ = 0;
  /// Round trips and generator lag of the queries the pass sent, and the
  /// latency of serve_mlp's unpinned round.
  std::vector<double> rtt_us_, send_wait_us_, unpinned_us_;
};

// ---- cora_pipeline ---------------------------------------------------------
//
// The paper's headline run the way a user runs it: per operation, Algorithm 3
// (T = 5) on a Cora-like graph, distillation into an MLP, checkpoint, reload
// into a Predictor, and the first answer over the test split; then every
// test node once more as a single-node query. The wide feature GEMM,
// autograd and the reliability terms do the work; the sampler, the stream
// path and the daemon do none.

constexpr double kCoraOpSeconds = 1.4;

// Accuracy floors of the output checks, about five points under the lowest
// value a run gave on seeds 42-51 (stream_online: eight, as its drift has a
// heavy tail). A change that costs that much accuracy fails the run
// outright; smaller losses are for compare.py's per-seed test_acc rule.
constexpr double kCoraAccuracyFloor = 0.78;
constexpr double kWebAccuracyFloor = 0.88;
constexpr double kStreamAccuracyFloor = 0.65;
constexpr double kServeAccuracyFloor = 0.77;

class CoraPipeline : public Workload {
 public:
  using Workload::Workload;

  void Setup(uint64_t seed, Result*) override {
    parallel::SetNumThreads(kSmallGraphThreads);
    const int64_t ops =
        options_.smoke ? 1
                       : std::max<int64_t>(
                             2, std::lround(options_.seconds / kCoraOpSeconds));
    seed_ = seed;
    data_.clear();
    contexts_.clear();
    for (int64_t k = 0; k < ops; ++k) {
      data_.push_back(Generate(CoraLikeConfig(), DeriveSeed(seed, 1, k)));
      contexts_.push_back(BuildContext(data_.back()));
    }
  }

  double Run(Result* result) override {
    const RddConfig config = PaperRddConfig(5, 1.0f);
    const DistillConfig distill_config = MlpDistillConfig();
    std::vector<double> pipeline_s, train_s, distill_s, accuracy, query_us;
    int64_t failed = 0;
    int64_t queries = 0;
    bool single_matches = true;
    for (size_t k = 0; k < data_.size(); ++k) {
      const Dataset& dataset = data_[k];
      const GraphContext& context = contexts_[k];
      const uint64_t train_seed = DeriveSeed(seed_, 2, k);
      const Clock::time_point start = Clock::now();
      RddResult rdd;
      {
        observe::TraceSpan span("bench/train_rdd");
        rdd = TrainRdd(dataset, context, config, train_seed);
      }
      const double trained = SecondsSince(start);
      DistillResult distilled;
      {
        observe::TraceSpan span("bench/distill");
        distilled = DistillToMlp(dataset, context, rdd.teacher,
                                 distill_config, train_seed);
      }
      const double distill_done = SecondsSince(start);
      std::vector<int64_t> labels;
      const std::string path = FreshPath("cora_mlp", ".rddc");
      bool ok = SaveCkpt(CheckpointFromDistilled(*distilled.student, "cora"),
                         path);
      StatusOr<Predictor> predictor = LoadPredictor(path, context);
      std::remove(path.c_str());
      if (ok && predictor.ok()) {
        observe::TraceSpan span("bench/predict");
        StatusOr<std::vector<int64_t>> answer =
            predictor->PredictLabels(dataset.split.test);
        ok = answer.ok();
        if (ok) labels = std::move(*answer);
      }
      const double elapsed = SecondsSince(start);
      if (!ok) {
        ++failed;
        continue;
      }
      pipeline_s.push_back(elapsed);
      train_s.push_back(trained);
      distill_s.push_back(distill_done - trained);
      const double served = LabelAccuracy(labels, dataset, dataset.split.test);
      accuracy.push_back(served);
      served_matches_ &= served == distilled.student_test_accuracy;
      distill_epochs_.push_back(distilled.report.epochs_run);
      tally_.Add(rdd, dataset);
      const std::vector<double> latency =
          SingleNodeQueries(&*predictor, dataset.split.test, labels,
                            &single_matches, &failed);
      query_us.insert(query_us.end(), latency.begin(), latency.end());
      queries += static_cast<int64_t>(dataset.split.test.size());
    }
    result->Count(static_cast<int64_t>(data_.size()) + queries, failed);
    result->Check("cora.served_accuracy_equals_distilled", served_matches_);
    result->Check("cora.single_node_answers_equal_batch", single_matches);
    result->Check("cora.accuracy_floor",
                  !accuracy.empty() && Mean(accuracy) > kCoraAccuracyFloor);
    result->Set("train_s", Median(train_s));
    result->Set("pipeline_s", Median(pipeline_s));
    result->Set("query_p50_us", Percentile(query_us, 50.0));
    result->Set("test_acc", Mean(accuracy));
    std::printf(
        "cora_pipeline: n=%zu pipelines, median %.3f s (TrainRdd %.3f s, "
        "distill %.3f s); single-node queries %s; served MLP accuracy %.4f\n",
        pipeline_s.size(), Median(pipeline_s), Median(train_s),
        Median(distill_s), LatencySummary(query_us).c_str(), Mean(accuracy));
    return std::accumulate(pipeline_s.begin(), pipeline_s.end(), 0.0) +
           1e-6 * std::accumulate(query_us.begin(), query_us.end(), 0.0);
  }

 private:
  uint64_t seed_ = 0;
  std::vector<Dataset> data_;
  std::vector<GraphContext> contexts_;
  bool served_matches_ = true;
};

// ---- web_minibatch ---------------------------------------------------------
//
// Mini-batch Algorithm 3 on a 20k-node web-scale graph (T = 2, 5 epochs at
// lr 0.05, batches of 1024 targets, fan-outs 10,10, sampled evaluation),
// then the ensemble checkpointed, reloaded into a Predictor and asked for
// the test split, and a few single-node queries, each a full-graph forward
// of both students. Sampling, GraphView extraction and buffer-pool churn
// dominate, so this is where parallelism and memory changes show. The split
// is Planetoid-style (20 labels per class): with the preset's 0.2% label
// rate a short run's accuracy swings by 30 points between seeds, and 3
// epochs at 30k nodes still moved it by 7%.

constexpr double kWebOpSeconds = 3.9;
constexpr size_t kWebQueries = 32;

class WebMiniBatch : public Workload {
 public:
  using Workload::Workload;

  void Setup(uint64_t seed, Result*) override {
    const int64_t ops =
        options_.smoke ? 1
                       : std::max<int64_t>(
                             1, std::lround(options_.seconds / kWebOpSeconds));
    CitationGenConfig gen = WebScaleConfig(options_.smoke ? 5000 : 20000);
    gen.labeled_fraction = 0.0;
    gen.labeled_per_class = 20;
    seed_ = seed;
    data_.clear();
    contexts_.clear();
    for (int64_t k = 0; k < ops; ++k) {
      data_.push_back(Generate(gen, DeriveSeed(seed, 1, k)));
      contexts_.push_back(BuildContext(data_.back()));
    }
  }

  double Run(Result* result) override {
    RddConfig config = PaperRddConfig(2, 1.0f);
    config.train.max_epochs = options_.smoke ? 1 : 5;
    config.train.lr = 0.05f;
    MiniBatchConfig mb;
    mb.batch_size = 1024;
    mb.fanouts = {10, 10};
    mb.sampled_eval = true;
    std::vector<double> pipeline_s, train_s, accuracy, sampled_accuracy,
        query_us;
    int64_t failed = 0;
    int64_t queries = 0;
    bool single_matches = true;
    for (size_t k = 0; k < data_.size(); ++k) {
      const Dataset& dataset = data_[k];
      const Clock::time_point start = Clock::now();
      RddResult rdd;
      {
        observe::TraceSpan span("bench/train_rdd_minibatch");
        rdd = TrainRddMiniBatch(dataset, contexts_[k], config, mb,
                                DeriveSeed(seed_, 2, k));
      }
      const double trained = SecondsSince(start);
      std::vector<int64_t> labels;
      const std::string path = FreshPath("web", ".rddc");
      bool ok = SaveCkpt(CheckpointFromRdd(rdd, config.base_model, "web"), path);
      StatusOr<Predictor> predictor = LoadPredictor(path, contexts_[k]);
      std::remove(path.c_str());
      if (ok && predictor.ok()) {
        observe::TraceSpan span("bench/predict");
        StatusOr<std::vector<int64_t>> answer =
            predictor->PredictLabels(dataset.split.test);
        ok = answer.ok();
        if (ok) labels = std::move(*answer);
      }
      const double elapsed = SecondsSince(start);
      if (!ok) {
        ++failed;
        continue;
      }
      pipeline_s.push_back(elapsed);
      train_s.push_back(trained);
      accuracy.push_back(LabelAccuracy(labels, dataset, dataset.split.test));
      sampled_accuracy.push_back(rdd.ensemble_test_accuracy);
      const size_t n = std::min(kWebQueries, dataset.split.test.size());
      const std::vector<int64_t> probe(dataset.split.test.begin(),
                                       dataset.split.test.begin() + n);
      const int threads = parallel::NumThreads();
      parallel::SetNumThreads(kSmallGraphThreads);
      const std::vector<double> latency = SingleNodeQueries(
          &*predictor, probe,
          std::vector<int64_t>(labels.begin(), labels.begin() + n),
          &single_matches, &failed);
      parallel::SetNumThreads(threads);
      query_us.insert(query_us.end(), latency.begin(), latency.end());
      queries += static_cast<int64_t>(n);
    }
    result->Count(static_cast<int64_t>(data_.size()) + queries, failed);
    result->Check("web.single_node_answers_equal_batch", single_matches);
    // The smoke size trains one epoch, which only has to beat chance.
    const double floor =
        options_.smoke
            ? 1.5 / static_cast<double>(data_.front().num_classes)
            : kWebAccuracyFloor;
    result->Check("web.accuracy_floor",
                  !accuracy.empty() && Mean(accuracy) > floor);
    result->Set("train_s", Median(train_s));
    result->Set("pipeline_s", Median(pipeline_s));
    result->Set("query_p50_us", Percentile(query_us, 50.0));
    result->Set("test_acc", Mean(accuracy));
    std::printf(
        "web_minibatch: n=%zu pipelines of %" PRId64
        " nodes, median %.3f s (TrainRddMiniBatch %.3f s); single-node "
        "queries %s; served ensemble accuracy %.4f (sampled evaluation "
        "%.4f); peak RSS %.0f MiB\n",
        pipeline_s.size(), data_.front().NumNodes(), Median(pipeline_s),
        Median(train_s), LatencySummary(query_us).c_str(), Mean(accuracy),
        Mean(sampled_accuracy), util::PeakRssMib());
    return std::accumulate(pipeline_s.begin(), pipeline_s.end(), 0.0) +
           1e-6 * std::accumulate(query_us.begin(), query_us.end(), 0.0);
  }

 private:
  uint64_t seed_ = 0;
  std::vector<Dataset> data_;
  std::vector<GraphContext> contexts_;
};

// ---- stream_online ---------------------------------------------------------
//
// A Pubmed-like graph replayed as a stream of deltas (5% of the edges and 1%
// of the nodes, in 16 deltas). Set-up trains the base ensemble (T = 5) and
// starts the daemon on it. Each delta then runs Apply ->
// IncrementalRddOnDelta -> checkpoint and dataset save -> EnqueueSwap, and
// waits until the daemon serves the new generation, while one client queries
// the GNN ensemble open-loop at 40/s with 16 nodes per query. Reads run
// beside writes: the only workload that exercises graph mutation, checkpoint
// I/O and hot swap. The stream stops at 16 deltas because every warm-started
// retrain moves the ensemble a little further from the base (README.md,
// findings): over 40 deltas test accuracy random-walks between seeds and could
// guard nothing.

constexpr double kStreamDeltaSeconds = 0.53;
constexpr int kStreamDeltas = 16;

class StreamOnline : public Workload {
 public:
  using Workload::Workload;

  void Setup(uint64_t seed, Result* result) override {
    parallel::SetNumThreads(kSmallGraphThreads);
    seed_ = seed;
    // A 5000-node test split (Planetoid uses 1000): the accuracy of one
    // stream is then read to +-0.5 points rather than +-1.2.
    CitationGenConfig gen = PubmedLikeConfig();
    gen.test_size = 5000;
    const Dataset full = Generate(gen, DeriveSeed(seed, 1));
    stream::StreamSplitOptions split;
    split.edge_holdout = 0.05;
    split.node_holdout = 0.01;
    split.num_deltas = kStreamDeltas;
    stream::ReplayStream replay;
    {
      observe::TraceSpan span("bench/generate");
      replay = SplitIntoStream(full, split, DeriveSeed(seed, 2));
    }
    deltas_ = std::move(replay.deltas);
    {
      observe::TraceSpan span("bench/context_build");
      graph_ = std::make_unique<stream::StreamingGraph>(std::move(replay.base));
    }
    {
      observe::TraceSpan span("bench/train_rdd");
      current_ = TrainRdd(graph_->dataset(), graph_->context(), Config(),
                          DeriveSeed(seed, 3));
    }
    tally_.Add(current_, graph_->dataset());
    base_accuracy_ = current_.ensemble_test_accuracy;
    DaemonOptions daemon_options;
    daemon_options.socket_path = Path("stream.sock");
    daemon_options.checkpoint_path = FreshPath("stream", ".rddc");
    daemon_options.dataset_path = FreshPath("stream", ".rdd");
    const bool saved =
        SaveCkpt(CheckpointFromRdd(current_, Config().base_model, "stream"),
                 daemon_options.checkpoint_path) &&
        SaveData(graph_->dataset(), daemon_options.dataset_path);
    StatusOr<std::unique_ptr<Daemon>> daemon = [&] {
      observe::TraceSpan span("bench/daemon_start");
      return Daemon::Start(daemon_options);
    }();
    result->Check("stream.setup", saved && daemon.ok());
    if (daemon.ok()) daemon_ = std::move(*daemon);
    socket_ = daemon_options.socket_path;
    served_ = {daemon_options.checkpoint_path, daemon_options.dataset_path};
  }

  double Run(Result* result) override {
    if (daemon_ == nullptr) return 0.0;
    const int64_t deltas =
        options_.smoke ? 2
                       : std::clamp<int64_t>(
                             std::lround(options_.seconds / kStreamDeltaSeconds),
                             2, kStreamDeltas);
    // The reader queries nodes present from the start; the spec is built
    // here because the stream's graph changes under the reader's feet.
    std::atomic<bool> stop{false};
    LoadSpec spec;
    spec.socket_path = socket_;
    spec.rate = 40.0;
    spec.nodes_per_query = 16;
    spec.num_nodes = graph_->dataset().NumNodes();
    spec.seed = DeriveSeed(seed_, 4);
    spec.stop = &stop;
    LoadResult queries;
    std::thread reader([&queries, spec] { queries = RunOpenLoop(spec); });

    const stream::IncrementalConfig inc;
    std::vector<double> fresh_s, train_s, accuracy;
    int64_t failed = 0;
    uint64_t generation = daemon_->Stats().generation;
    for (int64_t i = 0; i < deltas; ++i) {
      const stream::GraphDelta& delta = deltas_[static_cast<size_t>(i)];
      const Clock::time_point arrival = Clock::now();
      const int64_t nodes_before = graph_->dataset().NumNodes();
      Status applied;
      {
        observe::TraceSpan span("bench/stream_apply");
        applied = graph_->Apply(delta);
      }
      if (!applied.ok()) {
        ++failed;
        continue;
      }
      stream::IncrementalResult updated;
      const Clock::time_point train_start = Clock::now();
      {
        observe::TraceSpan span("bench/incremental_rdd");
        updated = stream::IncrementalRddOnDelta(
            *graph_, delta, nodes_before, current_, Config(), inc,
            DeriveSeed(seed_, 5, i));
      }
      train_s.push_back(SecondsSince(train_start));
      const double n = static_cast<double>(graph_->dataset().NumNodes());
      affected_frac_.push_back(static_cast<double>(updated.affected_nodes) / n);
      target_frac_.push_back(static_cast<double>(updated.target_nodes) / n);
      current_ = std::move(updated.result);
      accuracy.push_back(current_.ensemble_test_accuracy);

      const std::pair<std::string, std::string> next = {
          FreshPath("stream", ".rddc"), FreshPath("stream", ".rdd")};
      if (!SaveCkpt(CheckpointFromRdd(current_, Config().base_model, "stream"),
                    next.first) ||
          !SaveData(graph_->dataset(), next.second)) {
        ++failed;
        continue;
      }
      {
        observe::TraceSpan span("bench/swap_visible");
        Status status = daemon_->EnqueueSwap(next.first, next.second);
        while (status.code() == StatusCode::kFailedPrecondition) {
          ++swap_busy_;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          status = daemon_->EnqueueSwap(next.first, next.second);
        }
        if (!status.ok()) {
          ++failed;
          continue;
        }
        ++generation;
        while (daemon_->Stats().generation < generation &&
               daemon_->Stats().swap_failures == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      fresh_s.push_back(SecondsSince(arrival));
      // The daemon holds the generation it serves in memory; the files of
      // the one before are dead.
      std::remove(served_.first.c_str());
      std::remove(served_.second.c_str());
      served_ = next;
    }
    stop.store(true);
    reader.join();
    rtt_us_ = queries.rtt_us;
    send_wait_us_ = queries.lag_us;

    const DaemonStats stats = daemon_->Stats();
    result->Check("stream.no_swap_failures", stats.swap_failures == 0);
    result->Check("stream.all_generations_served",
                  stats.generation == 1 + static_cast<uint64_t>(deltas));
    result->Check("stream.context_equals_rebuild", ContextMatchesRebuild());
    result->Check("stream.daemon_equals_predictor", DaemonMatches());
    result->Check("stream.base_accuracy_floor",
                  base_accuracy_ > kStreamAccuracyFloor);
    result->Check("stream.accuracy_floor",
                  !accuracy.empty() && Mean(accuracy) > kStreamAccuracyFloor);
    result->Count(deltas + queries.attempted,
                  failed + queries.failed +
                      static_cast<int64_t>(stats.swap_failures));
    result->Set("train_s", Median(train_s));
    result->Set("pipeline_s", Median(fresh_s));
    result->Set("query_p50_us", Percentile(queries.latency_us, 50.0));
    result->Set("test_acc", Mean(accuracy));
    std::printf(
        "stream_online: n=%zu deltas, arrival to served median %.3f s "
        "(IncrementalRddOnDelta %.3f s); queries during swaps %s; ensemble "
        "accuracy %.4f at base, %.4f after the last delta, mean %.4f; "
        "affected %.2f of the graph per delta\n",
        fresh_s.size(), Median(fresh_s), Median(train_s),
        LatencySummary(queries.latency_us).c_str(), base_accuracy_,
        accuracy.empty() ? 0.0 : accuracy.back(), Mean(accuracy),
        Mean(affected_frac_));
    return std::accumulate(fresh_s.begin(), fresh_s.end(), 0.0);
  }

 private:
  static RddConfig Config() { return PaperRddConfig(5, 3.0f); }

  /// The streaming CSR must equal a from-scratch rebuild bit for bit.
  bool ContextMatchesRebuild() const {
    const GraphContext rebuilt = GraphContext::FromDataset(graph_->dataset());
    const GraphContext& live = graph_->context();
    return SameSparse(*live.features, *rebuilt.features) &&
           SameSparse(*live.adj_norm, *rebuilt.adj_norm) &&
           SameSparse(*live.adj_row, *rebuilt.adj_row);
  }

  /// The daemon's answers over the wire must equal an in-process Predictor
  /// loaded from the checkpoint it serves. The probe is one predictor batch,
  /// so it costs the same full-graph forward as any query.
  bool DaemonMatches() const {
    StatusOr<Predictor> local =
        Predictor::FromCheckpoint(served_.first, graph_->context());
    StatusOr<DaemonClient> client = DaemonClient::Connect(socket_);
    if (!local.ok() || !client.ok()) return false;
    const std::vector<int64_t>& test = graph_->dataset().split.test;
    const std::vector<int64_t> probe(
        test.begin(),
        test.begin() + std::min<ptrdiff_t>(local->batch_size(), test.size()));
    StatusOr<std::vector<int64_t>> expected = local->PredictLabels(probe);
    StatusOr<std::vector<int64_t>> served = client->PredictLabels(probe);
    return expected.ok() && served.ok() && *expected == *served;
  }

  uint64_t seed_ = 0;
  std::vector<stream::GraphDelta> deltas_;
  std::unique_ptr<stream::StreamingGraph> graph_;
  RddResult current_;
  double base_accuracy_ = 0.0;
  std::string socket_;
  /// Checkpoint and dataset files of the generation the daemon serves.
  std::pair<std::string, std::string> served_;
  std::unique_ptr<Daemon> daemon_;
};

// ---- serve_mlp -------------------------------------------------------------
//
// The distilled Cora MLP behind the daemon, queried open-loop at the
// reference rate of 8000 single-node queries per second over two
// connections, in rounds that each open fresh connections (and so fresh
// daemon connection threads). The wire protocol, the connection threads and
// the Predictor's row path do all the work of the measured pass; training
// runs only in set-up, whose train_s and pipeline_s (training to the first
// answer over the wire) are medians over the three set-ups. A training-side
// change must leave this workload's query latency unchanged.
//
// The daemon's threads and the client threads share one CPU, so a query
// costs two context switches on that core rather than two cross-core
// wake-ups: on a shared VM the wake-up latency follows the host, and it
// moved the p50 of identical unpinned runs by up to 15% (pinned: 3%). One
// more round against a second daemon started without the pin measures the
// default configuration beside it (serve.unpinned_p50_us, not bounded).
//
// There is deliberately no search for the highest rate within a latency
// limit: on a shared 4-vCPU machine the closed-loop rate of two connections
// varies from 100k/s to 200k/s within one process, so any such number
// measures the neighbours (README.md, findings).

constexpr double kReferenceRate = 8000.0;
constexpr int kConnections = 2;

class ServeMlp : public Workload {
 public:
  ServeMlp(const Options& options, SetupSamples* samples)
      : Workload(options), samples_(samples) {}

  void Setup(uint64_t seed, Result* result) override {
    parallel::SetNumThreads(kSmallGraphThreads);
    seed_ = seed;
    dataset_ = Generate(CoraLikeConfig(), DeriveSeed(seed, 1));
    const GraphContext context = BuildContext(dataset_);
    const Clock::time_point start = Clock::now();
    RddResult rdd;
    {
      observe::TraceSpan span("bench/train_rdd");
      rdd = TrainRdd(dataset_, context, PaperRddConfig(5, 1.0f),
                     DeriveSeed(seed, 2));
    }
    const double trained = SecondsSince(start);
    tally_.Add(rdd, dataset_);
    const DistillConfig distill_config = MlpDistillConfig();
    DistillResult distilled;
    {
      observe::TraceSpan span("bench/distill");
      distilled = DistillToMlp(dataset_, context, rdd.teacher, distill_config,
                               DeriveSeed(seed, 3));
    }
    distill_epochs_.push_back(distilled.report.epochs_run);
    daemon_options_.socket_path = Path("serve.sock");
    daemon_options_.checkpoint_path = FreshPath("serve_mlp", ".rddc");
    daemon_options_.dataset_path = FreshPath("serve_mlp", ".rdd");
    const bool saved = SaveCkpt(CheckpointFromDistilled(*distilled.student,
                                                        "serve"),
                                daemon_options_.checkpoint_path) &&
                       SaveData(dataset_, daemon_options_.dataset_path);
    // The daemon's threads inherit the pin from the thread that starts it.
    cpu_ = LastAllowedCpu();
    PinCurrentThread(cpu_);
    StatusOr<std::unique_ptr<Daemon>> daemon = [&] {
      observe::TraceSpan span("bench/daemon_start");
      return Daemon::Start(daemon_options_);
    }();
    UnpinCurrentThread();
    result->Check("serve.setup", saved && daemon.ok());
    if (!daemon.ok()) return;
    daemon_ = std::move(*daemon);

    // Served accuracy over the wire must equal the in-memory distillation
    // result, and the daemon must answer like an in-process Predictor.
    const std::vector<int64_t>& test = dataset_.split.test;
    StatusOr<DaemonClient> client =
        DaemonClient::Connect(daemon_options_.socket_path);
    StatusOr<std::vector<int64_t>> served =
        client.ok() ? client->PredictLabels(test)
                    : StatusOr<std::vector<int64_t>>(client.status());
    const double answered = SecondsSince(start);
    StatusOr<Predictor> local =
        Predictor::FromCheckpoint(daemon_options_.checkpoint_path, context);
    StatusOr<std::vector<int64_t>> expected =
        local.ok() ? local->PredictLabels(test)
                   : StatusOr<std::vector<int64_t>>(local.status());
    const double accuracy =
        served.ok() ? LabelAccuracy(*served, dataset_, test) : 0.0;
    result->Check("serve.served_accuracy_equals_distilled",
                  served.ok() && accuracy == distilled.student_test_accuracy);
    result->Check("serve.daemon_equals_predictor",
                  served.ok() && expected.ok() && *served == *expected);
    samples_->accuracy.push_back(accuracy);
    samples_->train_s.push_back(trained);
    samples_->pipeline_s.push_back(answered);
    // Warm the connection threads and the model's row path.
    Load(daemon_options_.socket_path, cpu_, options_.smoke ? 0.05 : 0.25,
         DeriveSeed(seed, 4));
  }

  double Run(Result* result) override {
    if (daemon_ == nullptr) return 0.0;
    const int rounds = options_.smoke ? 2 : 6;
    const double round_s =
        options_.smoke ? 0.5 : 0.75 * options_.seconds / rounds;
    LoadResult reference;
    for (int round = 0; round < rounds; ++round) {
      reference.Append(Load(daemon_options_.socket_path, cpu_, round_s,
                            DeriveSeed(seed_, 5, round)));
    }
    rtt_us_ = reference.rtt_us;
    send_wait_us_ = reference.lag_us;
    const LoadResult unpinned = UnpinnedRound(round_s, result);
    unpinned_us_ = unpinned.latency_us;
    result->Count(reference.attempted + unpinned.attempted,
                  reference.failed + unpinned.failed);
    result->Check("serve.accuracy_floor",
                  Mean(samples_->accuracy) > kServeAccuracyFloor);
    result->Set("train_s", Median(samples_->train_s));
    result->Set("pipeline_s", Median(samples_->pipeline_s));
    result->Set("query_p50_us", Percentile(reference.latency_us, 50.0));
    result->Set("test_acc", Mean(samples_->accuracy));
    std::printf(
        "serve_mlp: %.0f queries/s on %d connections, pinned to one CPU: %s; "
        "unpinned: %s; set-up n=%zu, TrainRdd %.3f s, TrainRdd to first answer "
        "%.3f s; served MLP accuracy %.4f\n",
        kReferenceRate, kConnections,
        LatencySummary(reference.latency_us).c_str(),
        LatencySummary(unpinned.latency_us).c_str(), samples_->train_s.size(),
        Median(samples_->train_s), Median(samples_->pipeline_s),
        Mean(samples_->accuracy));
    return 1e-6 * std::accumulate(reference.rtt_us.begin(),
                                  reference.rtt_us.end(), 0.0);
  }

 private:
  LoadResult Load(const std::string& socket, int cpu, double seconds,
                  uint64_t seed) const {
    LoadSpec spec;
    spec.socket_path = socket;
    spec.connections = kConnections;
    spec.rate = kReferenceRate;
    spec.seconds = seconds;
    spec.num_nodes = dataset_.NumNodes();
    spec.seed = seed;
    spec.cpu = cpu;
    return RunOpenLoop(spec);
  }

  /// One round at the reference rate against a second daemon on the same
  /// checkpoint, started and queried without the pin.
  LoadResult UnpinnedRound(double seconds, Result* result) const {
    DaemonOptions options = daemon_options_;
    options.socket_path = Path("serve-unpinned.sock");
    StatusOr<std::unique_ptr<Daemon>> daemon = Daemon::Start(options);
    result->Check("serve.unpinned_daemon_started", daemon.ok());
    if (!daemon.ok()) return LoadResult();
    Load(options.socket_path, -1, options_.smoke ? 0.05 : 0.25,
         DeriveSeed(seed_, 6));
    return Load(options.socket_path, -1, seconds, DeriveSeed(seed_, 7));
  }

  SetupSamples* samples_;
  int cpu_ = 0;
  uint64_t seed_ = 0;
  Dataset dataset_;
  DaemonOptions daemon_options_;
  std::unique_ptr<Daemon> daemon_;
};

// ---- run -------------------------------------------------------------------

std::unique_ptr<Workload> MakeWorkload(const Options& options,
                                       SetupSamples* samples) {
  if (options.workload == "cora_pipeline") {
    return std::make_unique<CoraPipeline>(options);
  }
  if (options.workload == "web_minibatch") {
    return std::make_unique<WebMiniBatch>(options);
  }
  if (options.workload == "stream_online") {
    return std::make_unique<StreamOnline>(options);
  }
  if (options.workload == "serve_mlp") {
    return std::make_unique<ServeMlp>(options, samples);
  }
  return nullptr;
}

/// Per-layer values read from the metrics registry and the buffer pool
/// after the traced pass.
void RegistryValues(Result* result) {
  const observe::MetricsSnapshot snapshot =
      observe::MetricsRegistry::Global().Snapshot();
  auto counter = [&](const std::string& name) {
    for (const observe::MetricValue& v : snapshot.counters) {
      if (v.name == name) return static_cast<double>(v.value);
    }
    return 0.0;
  };
  double flops = 0.0;
  for (const char* kernel : {"gemm", "spmm", "fused_gemm_bias_relu",
                             "fused_spmm_bias_relu", "fused_softmax_xent"}) {
    const double f = counter(std::string("simd.") + kernel + ".flops");
    result->Set(std::string("simd.") + kernel + ".gflop", f * 1e-9);
    flops += f;
  }
  result->Set("raw.kernel_gflop", flops * 1e-9);
  result->Set("simd.optimizer.calls", counter("simd.optimizer.calls"));
  const double hits = counter("simd.fusion.hits");
  const double misses = counter("simd.fusion.misses");
  result->Set("simd.fusion.hit_rate_pct",
              hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0);
  result->Set("train.epochs", counter("train.epochs"));
  result->Set("train.minibatch.batches", counter("train.minibatch.batches"));
  result->Set("raw.serve_queries", counter("serve.queries"));

  const double by_caller = counter("taskgroup.tasks_claimed_by_caller");
  const double by_helper = counter("taskgroup.tasks_claimed_by_helper");
  const double tasks = counter("taskgroup.tasks_inline") + by_caller + by_helper;
  result->Set("parallel.tasks", tasks);
  result->Set("parallel.helper_claim_frac",
              by_caller + by_helper > 0 ? by_helper / (by_caller + by_helper)
                                        : 0.0);
  double task_ns = 0.0, task_count = 0.0;
  for (const observe::HistogramValue& h : snapshot.histograms) {
    if (h.name == "taskgroup.task_ns") {
      task_ns = static_cast<double>(h.sum);
      task_count = static_cast<double>(h.count);
    }
  }
  result->Set("parallel.task_ms_mean",
              task_count > 0 ? task_ns / task_count * 1e-6 : 0.0);
  result->Set("parallel.threadpool_submitted", counter("threadpool.submitted"));

  const memory::PoolStats pool = memory::BufferPool::Global().stats();
  const double acquires = static_cast<double>(pool.hits + pool.misses);
  constexpr double kMib = 1.0 / (1024.0 * 1024.0);
  result->Set("memory.pool_hit_rate",
              acquires > 0 ? static_cast<double>(pool.hits) / acquires : 0.0);
  result->Set("memory.pool_peak_live_mib",
              static_cast<double>(pool.peak_live_floats) * sizeof(float) * kMib);
  result->Set("memory.pool_free_mib",
              static_cast<double>(pool.free_floats) * sizeof(float) * kMib);
}

int Run(const Options& options) {
  Result result;
  SetupSamples samples;
  std::unique_ptr<Workload> workload;
  if (!options.trace) {
    // Set up several times from scratch and report the median, so one slow
    // set-up (cold caches, page faults) does not decide setup_s.
    std::vector<double> setup_s;
    const int setups = options.smoke ? 1 : 3;
    for (int r = 0; r < setups; ++r) {
      workload.reset();
      workload = MakeWorkload(options, &samples);
      const Clock::time_point start = Clock::now();
      workload->Setup(DeriveSeed(options.seed, 1000, r), &result);
      setup_s.push_back(SecondsSince(start));
    }
    result.Set("setup_s", Median(setup_s));
    workload->Run(&result);
  } else {
    // Three passes over identical inputs: a warm-up, the untraced base of the
    // overhead ratio, and the traced pass. Without the warm-up the ratio
    // would credit tracing with the second pass's warm caches.
    const uint64_t setup_seed = DeriveSeed(options.seed, 1000, 0);
    double untraced = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
      Result untraced_result;
      workload = MakeWorkload(options, &samples);
      workload->Setup(setup_seed, &untraced_result);
      untraced = workload->Run(&untraced_result);
      workload.reset();
      samples = SetupSamples();
      result.MergeChecks(untraced_result);
    }

    observe::MetricsRegistry::Global().ResetAll();
    memory::BufferPool::Global().ResetStats();
    observe::SetMetricsEnabled(true);
    if (!observe::StartTracing(options.out_dir + "/trace.json")) {
      std::fprintf(stderr, "cannot start tracing\n");
      return 1;
    }
    workload = MakeWorkload(options, &samples);
    workload->Setup(setup_seed, &result);
    const double traced = workload->Run(&result);
    workload->LayerValues(&result);
    workload.reset();  // Quiesce daemon threads before the trace is written.
    RegistryValues(&result);
    observe::SetMetricsEnabled(false);
    if (!observe::StopTracing()) {
      std::fprintf(stderr, "cannot write the trace\n");
      return 1;
    }
    result.Set("observe.trace_overhead_pct",
               untraced > 0 ? 100.0 * (traced / untraced - 1.0) : 0.0);
  }
  result.Set("peak_rss_mib", util::PeakRssMib());
  if (!result.WriteTo(options.out_dir + "/result.json")) {
    std::fprintf(stderr, "cannot write %s/result.json\n",
                 options.out_dir.c_str());
    return 1;
  }
  return 0;
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--out" && has_value) {
      options->out_dir = argv[++i];
    } else if (arg == "--trace") {
      options->trace = true;
    } else if (arg == "--smoke") {
      options->smoke = true;
    } else {
      return false;
    }
  }
  return !options->out_dir.empty() && options->seconds > 0 &&
         options->seconds <= 600;
}

}  // namespace
}  // namespace rdd::perfbench

int main(int argc, char** argv) {
  rdd::perfbench::Options options;
  if (!rdd::perfbench::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: rdd_bench --workload <name> --seed <u64> --seconds "
                 "<s> --out <dir> [--trace] [--smoke]\n");
    return 2;
  }
  rdd::perfbench::SetupSamples unused;
  if (rdd::perfbench::MakeWorkload(options, &unused) == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }
  return rdd::perfbench::Run(options);
}
