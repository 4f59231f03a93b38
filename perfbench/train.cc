// Workload `train`: ERM runs. One op is one call to TrainGraphClassifier
// (minibatched), TrainNodeClassifier or TrainLinkPredictor, in rotation,
// over small seeded datasets. The autodiff tape, gnn/trainable and the
// batch/segment kernels do the work; core, hom and wl sit idle. Timing
// each task kind under its own span keeps all three training loops
// guarded.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "gnn/trainable.h"
#include "graph/generators.h"
#include "workloads.h"

namespace gelc {
namespace perfbench {
namespace {

constexpr size_t kDatasetsPerKind = 3;
constexpr size_t kMolecules = 48;
constexpr size_t kCitationNodes = 256;
constexpr size_t kCitationClasses = 4;
constexpr size_t kSocialNodes = 128;
constexpr size_t kEpochs = 30;
constexpr double kLearningRate = 0.05;
constexpr size_t kGraphBatch = 8;
constexpr uint64_t kCheckEvery = 8;
constexpr size_t kReferenceThreads = 4;
// Floors on the mean test accuracy of a task's runs so far (graph, node,
// link; chance is 0.5, 0.25 and 0.5), checked once a task has
// kFloorAfterRuns runs. Single graph runs score anywhere from 0.07 to 1.0
// on their 15-graph test split, so no per-run floor holds; the means sat
// near 0.72 (graph), 0.998 (node) and 0.64 (link) on every seed tried.
constexpr double kAccuracyFloor[3] = {0.55, 0.90, 0.55};
constexpr uint64_t kFloorAfterRuns = 60;

enum Task { kGraphTask, kNodeTask, kLinkTask };

class TrainWorkload : public Workload {
 public:
  explicit TrainWorkload(uint64_t seed) : seed_(seed) {
    Rng rng(MixSeed(seed, 0x7A1));
    for (size_t k = 0; k < kDatasetsPerKind; ++k) {
      pristine_graphs_.push_back(SyntheticMolecules(kMolecules, &rng));
      pristine_nodes_.push_back(
          SyntheticCitations(kCitationNodes, kCitationClasses, 0.1, &rng));
      pristine_links_.push_back(SyntheticSocialLinks(kSocialNodes, &rng));
    }
  }

  uint64_t mix_period() const override { return 3 * kDatasetsPerKind; }
  const char* name() const override { return "train"; }

  void ResetInputs() override {
    graphs_ = pristine_graphs_;
    nodes_ = pristine_nodes_;
    links_ = pristine_links_;
  }

  Status Setup(Tracer* tracer) override {
    ScopedSpan span(tracer, Layer::kCsrBuild);
    for (const GraphDataset& d : graphs_)
      for (const Graph& g : d.graphs) (void)g.Csr();
    for (const NodeDataset& d : nodes_) (void)d.graph.Csr();
    for (const LinkDataset& d : links_) (void)d.graph.Csr();
    return Status::OK();
  }

  void PrepareOp(uint64_t i) override {
    task_ = static_cast<Task>(i % 3);
    dataset_ = (i / 3) % kDatasetsPerKind;
    options_ = TrainOptions();
    options_.epochs = kEpochs;
    options_.learning_rate = kLearningRate;
    // Ring motifs need two rounds of message passing to be seen.
    options_.hidden_widths = task_ == kGraphTask ? std::vector<size_t>{16, 16}
                                                 : std::vector<size_t>{16};
    options_.seed = MixSeed(seed_, i);
    options_.batch_size = kGraphBatch;
  }

  Status RunOp(uint64_t, Tracer* tracer) override {
    GELC_ASSIGN_OR_RETURN(report_, Train(tracer));
    return Status::OK();
  }

  bool SampledCheck(uint64_t i) const override {
    return MixSeed(seed_ ^ 0xC4EC, i) % kCheckEvery == 0;
  }

  OpOutcome CheckOp(uint64_t, bool full, bool inject) override {
    OpOutcome out;
    std::vector<double> losses = report_.loss_history;
    if (inject && !losses.empty()) {
      uint64_t bits = 0;
      std::memcpy(&bits, &losses[0], sizeof(bits));
      bits ^= 1;
      std::memcpy(&losses[0], &bits, sizeof(bits));
    }
    const double acc[2] = {report_.train_accuracy, report_.test_accuracy};
    min_accuracy_[task_] = std::min(min_accuracy_[task_], report_.test_accuracy);
    sum_accuracy_[task_] += report_.test_accuracy;
    ++runs_[task_];
    out.digest = HashBytes(losses.data(), losses.size() * sizeof(double),
                           HashBytes(acc, sizeof(acc)));
    const double mean_accuracy =
        sum_accuracy_[task_] / static_cast<double>(runs_[task_]);
    out.ok = losses.size() == kEpochs &&
             (runs_[task_] < kFloorAfterRuns ||
              mean_accuracy >= kAccuracyFloor[task_]);
    for (double l : losses) out.ok = out.ok && std::isfinite(l);
    if (!out.ok) {
      std::fprintf(stderr, "perfbench: train task %d dataset %zu: %zu losses, "
                   "mean test accuracy %.4f over %llu runs\n",
                   static_cast<int>(task_), dataset_, losses.size(),
                   mean_accuracy, static_cast<unsigned long long>(runs_[task_]));
    }
    if (!full) return out;
    // The reference: the same run on another pool size (the timed loop
    // runs on one thread). The determinism contract makes the loss
    // history bit-identical at any pool size.
    const size_t threads = ParallelThreadCount();
    SetParallelThreadCount(threads == kReferenceThreads ? 1 : kReferenceThreads);
    Result<TrainReport> reference = Train(nullptr);
    SetParallelThreadCount(threads);
    out.ok = out.ok && reference.ok() &&
             reference->loss_history.size() == losses.size() &&
             std::memcmp(reference->loss_history.data(), losses.data(),
                         losses.size() * sizeof(double)) == 0;
    return out;
  }

  std::string ReportJson() const override {
    // Test accuracy per task: floor, lowest and mean over the run.
    std::string out = "{\"epochs\": " + std::to_string(kEpochs);
    const char* const names[3] = {"graph", "node", "link"};
    for (int t = 0; t < 3; ++t) {
      const double mean = runs_[t] ? sum_accuracy_[t] / runs_[t] : 0.0;
      out += std::string(", \"") + names[t] + "_test_accuracy\": [" +
             std::to_string(kAccuracyFloor[t]) + ", " +
             std::to_string(min_accuracy_[t]) + ", " + std::to_string(mean) +
             "]";
    }
    return out + "}";
  }

 private:
  Result<TrainReport> Train(Tracer* tracer) {
    Tracer off;
    Tracer* t = tracer ? tracer : &off;
    switch (task_) {
      case kGraphTask: {
        ScopedSpan span(t, Layer::kTrainGraph);
        return TrainGraphClassifier(graphs_[dataset_], options_);
      }
      case kNodeTask: {
        ScopedSpan span(t, Layer::kTrainNode);
        return TrainNodeClassifier(nodes_[dataset_], options_);
      }
      default: {
        ScopedSpan span(t, Layer::kTrainLink);
        return TrainLinkPredictor(links_[dataset_], options_);
      }
    }
  }

  uint64_t seed_;
  std::vector<GraphDataset> pristine_graphs_;
  std::vector<NodeDataset> pristine_nodes_;
  std::vector<LinkDataset> pristine_links_;
  std::vector<GraphDataset> graphs_;
  std::vector<NodeDataset> nodes_;
  std::vector<LinkDataset> links_;
  Task task_ = kGraphTask;
  size_t dataset_ = 0;
  TrainOptions options_;
  TrainReport report_;
  double min_accuracy_[3] = {1.0, 1.0, 1.0};
  double sum_accuracy_[3] = {};
  uint64_t runs_[3] = {};
};

}  // namespace

std::unique_ptr<Workload> MakeTrainWorkload(uint64_t seed) {
  return std::make_unique<TrainWorkload>(seed);
}

}  // namespace perfbench
}  // namespace gelc
