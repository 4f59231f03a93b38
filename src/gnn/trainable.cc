#include "gnn/trainable.h"

#include <algorithm>
#include <functional>

#include "base/logging.h"
#include "obs/metrics.h"
#include "obs/timing.h"
#include "obs/trace.h"

namespace gelc {

TrainableGnn::TrainableGnn(const Config& config, Rng* rng)
    : config_(config) {
  for (size_t i = 0; i + 1 < config.widths.size(); ++i) {
    size_t din = config.widths[i];
    size_t dout = config.widths[i + 1];
    auto layer = std::make_unique<Layer>(Layer{
        Parameter(Matrix::RandomGaussian(din, dout, config.init_scale, rng)),
        Parameter(Matrix::RandomGaussian(din, dout, config.init_scale, rng)),
        Parameter(Matrix::RandomGaussian(1, dout, config.init_scale, rng))});
    layers_.push_back(std::move(layer));
  }
  size_t hidden = config.widths.back();
  head_w_ = std::make_unique<Parameter>(
      Matrix::RandomGaussian(hidden, config.num_outputs, config.init_scale,
                             rng));
  head_b_ = std::make_unique<Parameter>(
      Matrix::RandomGaussian(1, config.num_outputs, config.init_scale, rng));
  pair_head_w_ = std::make_unique<Parameter>(Matrix::RandomGaussian(
      3 * hidden, config.num_outputs, config.init_scale, rng));
  pair_head_b_ = std::make_unique<Parameter>(
      Matrix::RandomGaussian(1, config.num_outputs, config.init_scale, rng));
}

Result<std::unique_ptr<TrainableGnn>> TrainableGnn::Create(
    const Config& config) {
  if (config.widths.size() < 2) {
    return Status::InvalidArgument("need input and at least one hidden width");
  }
  if (config.num_outputs == 0) {
    return Status::InvalidArgument("num_outputs must be positive");
  }
  Rng rng(config.seed);
  // NOLINTNEXTLINE(banned-alloc): private ctor, goes into unique_ptr
  return std::unique_ptr<TrainableGnn>(new TrainableGnn(config, &rng));
}

ValueId TrainableGnn::VertexEmbeddings(Tape* tape, const Graph& g) const {
  // The graph's cached CSR handle is shared by every tape built over g
  // during training — no per-step adjacency materialization at all. The
  // trainers hoist this call and use the CSR overload directly so not
  // even the cache lookup repeats per epoch.
  return VertexEmbeddings(tape, g, g.Csr());
}

ValueId TrainableGnn::VertexEmbeddings(Tape* tape, const Graph& g,
                                       const CsrGraph& csr) const {
  GELC_CHECK(g.feature_dim() == config_.widths.front());
  GELC_CHECK(csr.num_vertices() == g.num_vertices());
  // Trainers hoist the CSR view across whole epochs; a concurrent
  // streaming mutation would silently train on stale structure, so pin
  // the snapshot's epoch against the graph's (debug builds).
  csr.CheckFreshFor(g);
  ValueId f = tape->Input(g.features());
  for (const auto& layer : layers_) {
    ValueId self = tape->MatMul(f, tape->Param(&layer->w1));
    ValueId agg = tape->SparseMatMul(&csr.adjacency(), &csr.transpose(), f);
    ValueId nbr = tape->MatMul(agg, tape->Param(&layer->w2));
    ValueId pre = tape->AddRowBroadcast(tape->Add(self, nbr),
                                        tape->Param(&layer->b));
    f = tape->Act(config_.act, pre);
  }
  return f;
}

ValueId TrainableGnn::VertexEmbeddings(Tape* tape,
                                       const GraphBatch& batch) const {
  GELC_CHECK(batch.feature_dim() == config_.widths.front());
  // Same layer structure as the single-graph path over the
  // block-diagonal operators. Message passing cannot cross a block
  // boundary, so each block of the result is bit-identical to the
  // standalone forward; the segmented tape ops make the *backward* pass
  // accumulate layer-parameter gradients one block at a time, matching
  // per-graph tapes bit-for-bit as well.
  const std::vector<size_t>& offsets = batch.vertex_offsets();
  ValueId f = tape->Input(batch.features());
  for (const auto& layer : layers_) {
    ValueId self = tape->MatMulSegments(f, tape->Param(&layer->w1), offsets);
    ValueId agg =
        tape->SparseMatMul(&batch.adjacency(), &batch.transpose(), f);
    ValueId nbr = tape->MatMulSegments(agg, tape->Param(&layer->w2), offsets);
    ValueId pre = tape->AddRowBroadcastSegments(
        tape->Add(self, nbr), tape->Param(&layer->b), offsets);
    f = tape->Act(config_.act, pre);
  }
  return f;
}

ValueId TrainableGnn::NodeLogits(Tape* tape, const Graph& g) const {
  return NodeLogits(tape, g, g.Csr());
}

ValueId TrainableGnn::NodeLogits(Tape* tape, const Graph& g,
                                 const CsrGraph& csr) const {
  ValueId z = VertexEmbeddings(tape, g, csr);
  return tape->AddRowBroadcast(tape->MatMul(z, tape->Param(head_w_.get())),
                               tape->Param(head_b_.get()));
}

ValueId TrainableGnn::GraphLogits(Tape* tape, const Graph& g) const {
  ValueId z = VertexEmbeddings(tape, g);
  ValueId pooled = tape->ColSums(z);
  return tape->AddRowBroadcast(
      tape->MatMul(pooled, tape->Param(head_w_.get())),
      tape->Param(head_b_.get()));
}

ValueId TrainableGnn::GraphLogits(Tape* tape, const GraphBatch& batch) const {
  GELC_TRACE_SPAN("gnn.batch", {{"graphs", batch.num_graphs()},
                                {"vertices", batch.num_vertices()},
                                {"arcs", batch.num_arcs()}});
  ValueId z = VertexEmbeddings(tape, batch);
  // Row s of pooled carries the same bits as ColSums over block s alone.
  // The head is row-local per pooled row (one row per graph), so the
  // plain ops already accumulate head gradients in per-graph order.
  ValueId pooled = tape->SegmentSum(z, batch.vertex_offsets());
  return tape->AddRowBroadcast(
      tape->MatMul(pooled, tape->Param(head_w_.get())),
      tape->Param(head_b_.get()));
}

ValueId TrainableGnn::PairLogits(
    Tape* tape, const Graph& g,
    const std::vector<std::pair<VertexId, VertexId>>& pairs) const {
  return PairLogits(tape, g, g.Csr(), pairs);
}

ValueId TrainableGnn::PairLogits(
    Tape* tape, const Graph& g, const CsrGraph& csr,
    const std::vector<std::pair<VertexId, VertexId>>& pairs) const {
  ValueId z = VertexEmbeddings(tape, g, csr);
  std::vector<size_t> us, vs;
  us.reserve(pairs.size());
  vs.reserve(pairs.size());
  for (const auto& [u, v] : pairs) {
    us.push_back(u);
    vs.push_back(v);
  }
  ValueId zu = tape->GatherRows(z, us);
  ValueId zv = tape->GatherRows(z, vs);
  ValueId prod = tape->Hadamard(zu, zv);
  ValueId feats = tape->ConcatCols(tape->ConcatCols(zu, zv), prod);
  return tape->AddRowBroadcast(
      tape->MatMul(feats, tape->Param(pair_head_w_.get())),
      tape->Param(pair_head_b_.get()));
}

std::vector<Parameter*> TrainableGnn::Parameters() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    out.push_back(&layer->w1);
    out.push_back(&layer->w2);
    out.push_back(&layer->b);
  }
  out.push_back(head_w_.get());
  out.push_back(head_b_.get());
  out.push_back(pair_head_w_.get());
  out.push_back(pair_head_b_.get());
  return out;
}

namespace {

double Accuracy(const std::vector<size_t>& pred,
                const std::vector<size_t>& truth) {
  GELC_CHECK(pred.size() == truth.size());
  if (pred.empty()) return 0.0;
  size_t hits = 0;
  for (size_t i = 0; i < pred.size(); ++i)
    if (pred[i] == truth[i]) ++hits;
  return static_cast<double>(hits) / static_cast<double>(pred.size());
}

// One tape of an ERM epoch. `loss` builds the forward pass and returns
// the cross entropy averaged over the step's examples; a nonzero `scale`
// turns that mean back into a sum before the backward pass.
struct ErmStep {
  std::function<ValueId(const TrainableGnn&, Tape*)> loss;
  double scale = 0.0;
};

// The one ERM loop behind the three trainers (slides 16-20): graph, node
// and link tasks differ only in their step list and their evaluation.
// Each epoch zeroes the gradients, runs one tape per step (forward, then
// backward, accumulating into the parameters) and takes one Adam step.
// The reported epoch loss is the step's mean when there is one step
// (taken as is, since mean * k / k need not round back to the mean),
// else the scaled sum over steps divided by `train_count`.
Result<TrainReport> MinimizeEmpiricalRisk(
    size_t input_dim, size_t num_outputs, const TrainOptions& options,
    const std::vector<ErmStep>& steps, size_t train_count,
    const std::function<Status(const TrainableGnn&, TrainReport*)>&
        evaluate) {
  static obs::Counter* epochs = obs::GetCounter("train.epochs");
  static obs::Gauge* loss_gauge = obs::GetGauge("train.loss");
  TrainableGnn::Config cfg;
  cfg.widths = {input_dim};
  cfg.widths.insert(cfg.widths.end(), options.hidden_widths.begin(),
                    options.hidden_widths.end());
  cfg.num_outputs = num_outputs;
  cfg.seed = options.seed;
  GELC_ASSIGN_OR_RETURN(std::unique_ptr<TrainableGnn> model,
                        TrainableGnn::Create(cfg));
  Adam opt(options.learning_rate);
  for (Parameter* p : model->Parameters()) opt.Register(p);

  TrainReport report;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    GELC_TRACE_SPAN("train.epoch", {{"epoch", epoch}});
    GELC_OBS_TIME("train.epoch");
    double scaled_sum = 0.0;
    double last_mean = 0.0;
    opt.ZeroGrad();
    for (const ErmStep& step : steps) {
      Tape tape;
      ValueId loss, root;
      {
        GELC_TRACE_SPAN("train.forward");
        GELC_OBS_TIME("train.forward");
        loss = step.loss(*model, &tape);
        root = step.scale != 0.0 ? tape.Scale(loss, step.scale) : loss;
      }
      {
        GELC_TRACE_SPAN("train.backward");
        GELC_OBS_TIME("train.backward");
        tape.Backward(root);
      }
      last_mean = tape.value(loss).At(0, 0);
      scaled_sum += tape.value(root).At(0, 0);
    }
    {
      GELC_TRACE_SPAN("train.step");
      GELC_OBS_TIME("train.step");
      opt.Step();
    }
    double mean_loss =
        steps.size() == 1 ? last_mean
                          : scaled_sum / static_cast<double>(train_count);
    epochs->Increment();
    loss_gauge->Set(mean_loss);
    report.loss_history.push_back(mean_loss);
  }
  GELC_RETURN_NOT_OK(evaluate(*model, &report));
  return report;
}

}  // namespace

Result<TrainReport> TrainNodeClassifier(const NodeDataset& data,
                                        const TrainOptions& options) {
  std::vector<size_t> train_labels;
  for (size_t v : data.train_nodes) train_labels.push_back(data.labels[v]);

  // One CSR lookup for the whole run: every epoch tape (and the eval
  // tape) reuses this view instead of re-querying Graph::Csr().
  const CsrGraph& csr = data.graph.Csr();

  ErmStep full_batch;
  full_batch.loss = [&](const TrainableGnn& model, Tape* tape) {
    ValueId logits = model.NodeLogits(tape, data.graph, csr);
    ValueId train_logits = tape->GatherRows(logits, data.train_nodes);
    return tape->SoftmaxCrossEntropy(train_logits, train_labels);
  };
  return MinimizeEmpiricalRisk(
      data.graph.feature_dim(), data.num_classes, options, {full_batch},
      data.train_nodes.size(),
      [&](const TrainableGnn& model, TrainReport* report) {
        Tape tape;
        ValueId logits = model.NodeLogits(&tape, data.graph, csr);
        std::vector<size_t> pred = RowArgmax(tape.value(logits));
        std::vector<size_t> train_pred, test_pred, test_labels;
        for (size_t v : data.train_nodes) train_pred.push_back(pred[v]);
        for (size_t v : data.test_nodes) {
          test_pred.push_back(pred[v]);
          test_labels.push_back(data.labels[v]);
        }
        report->train_accuracy = Accuracy(train_pred, train_labels);
        report->test_accuracy = Accuracy(test_pred, test_labels);
        return Status::OK();
      });
}

Result<TrainReport> TrainGraphClassifier(const GraphDataset& data,
                                         const TrainOptions& options,
                                         double train_fraction) {
  if (data.graphs.empty()) {
    return Status::InvalidArgument("empty dataset");
  }
  size_t train_count = static_cast<size_t>(
      train_fraction * static_cast<double>(data.graphs.size()));
  train_count = std::max<size_t>(1, std::min(train_count, data.graphs.size()));

  // Pre-pack the training split into block-diagonal minibatches once —
  // the graphs are immutable across epochs, so every epoch reuses the
  // same packed CSR operators and builds one tape per minibatch instead
  // of one per graph.
  size_t batch_size = options.batch_size == 0
                          ? train_count
                          : std::min(options.batch_size, train_count);
  struct Minibatch {
    GraphBatch batch;
    std::vector<size_t> labels;
  };
  std::vector<Minibatch> minibatches;
  for (size_t lo = 0; lo < train_count; lo += batch_size) {
    size_t hi = std::min(lo + batch_size, train_count);
    std::vector<const Graph*> members;
    std::vector<size_t> labels;
    for (size_t i = lo; i < hi; ++i) {
      members.push_back(&data.graphs[i]);
      labels.push_back(data.labels[i]);
    }
    GELC_ASSIGN_OR_RETURN(GraphBatch batch, GraphBatch::Create(members));
    minibatches.push_back(Minibatch{std::move(batch), std::move(labels)});
  }

  // SoftmaxCrossEntropy averages over a minibatch's k rows; scaling each
  // loss by k restores sum-of-per-graph-gradients semantics (one
  // optimizer step per epoch, gradients summed over the whole training
  // split regardless of batch size).
  std::vector<ErmStep> steps;
  for (const Minibatch& mb : minibatches) {
    ErmStep step;
    step.loss = [&mb](const TrainableGnn& model, Tape* tape) {
      return tape->SoftmaxCrossEntropy(model.GraphLogits(tape, mb.batch),
                                       mb.labels);
    };
    step.scale = static_cast<double>(mb.batch.num_graphs());
    steps.push_back(std::move(step));
  }
  return MinimizeEmpiricalRisk(
      data.graphs[0].feature_dim(), data.num_classes, options, steps,
      train_count, [&](const TrainableGnn& model, TrainReport* report) {
        // Batched evaluation: one forward over the whole dataset; row i
        // of the logits is bit-identical to the per-graph forward of
        // graph i.
        std::vector<const Graph*> all_graphs;
        all_graphs.reserve(data.graphs.size());
        for (const Graph& g : data.graphs) all_graphs.push_back(&g);
        GELC_ASSIGN_OR_RETURN(GraphBatch eval_batch,
                              GraphBatch::Create(all_graphs));
        Tape tape;
        ValueId logits = model.GraphLogits(&tape, eval_batch);
        std::vector<size_t> pred = RowArgmax(tape.value(logits));
        std::vector<size_t> train_pred, train_truth, test_pred, test_truth;
        for (size_t i = 0; i < data.graphs.size(); ++i) {
          if (i < train_count) {
            train_pred.push_back(pred[i]);
            train_truth.push_back(data.labels[i]);
          } else {
            test_pred.push_back(pred[i]);
            test_truth.push_back(data.labels[i]);
          }
        }
        report->train_accuracy = Accuracy(train_pred, train_truth);
        report->test_accuracy = Accuracy(test_pred, test_truth);
        return Status::OK();
      });
}

Result<TrainReport> TrainLinkPredictor(const LinkDataset& data,
                                       const TrainOptions& options) {
  if (data.train_pairs.empty()) {
    return Status::InvalidArgument("empty link dataset");
  }
  // One CSR lookup for the whole run (see TrainNodeClassifier).
  const CsrGraph& csr = data.graph.Csr();

  ErmStep full_batch;
  full_batch.loss = [&](const TrainableGnn& model, Tape* tape) {
    ValueId logits = model.PairLogits(tape, data.graph, csr, data.train_pairs);
    return tape->SoftmaxCrossEntropy(logits, data.train_labels);
  };
  return MinimizeEmpiricalRisk(
      data.graph.feature_dim(), 2, options, {full_batch},
      data.train_pairs.size(),
      [&](const TrainableGnn& model, TrainReport* report) {
        auto eval = [&](const std::vector<std::pair<VertexId, VertexId>>& pairs,
                        const std::vector<size_t>& labels) {
          Tape tape;
          ValueId logits = model.PairLogits(&tape, data.graph, csr, pairs);
          return Accuracy(RowArgmax(tape.value(logits)), labels);
        };
        report->train_accuracy = eval(data.train_pairs, data.train_labels);
        report->test_accuracy = eval(data.test_pairs, data.test_labels);
        return Status::OK();
      });
}

}  // namespace gelc
