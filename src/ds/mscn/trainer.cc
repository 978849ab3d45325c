#include "ds/mscn/trainer.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include <memory>

#include "ds/nn/optimizer.h"
#include "ds/obs/trace.h"
#include "ds/util/parallel.h"
#include "ds/util/random.h"
#include "ds/util/timer.h"

namespace ds::mscn {

double TrainingStep::Run(MscnModel* model, const Dataset& dataset,
                         const FeatureSpace& space,
                         std::span<const size_t> indices,
                         const nn::LogNormalizer& normalizer, LossKind loss,
                         float scale) {
  PackTrainingBatch(dataset, indices, space, &batch_);
  labels_.clear();
  labels_.reserve(indices.size());
  for (size_t idx : indices) labels_.push_back(dataset.labels[idx]);
  const nn::Tensor& y = model->Forward(batch_);
  dy_.ResizeInPlace({y.dim(0), y.dim(1)});
  const double value = loss == LossKind::kQError
                           ? nn::QErrorLoss(y, labels_, normalizer, &dy_)
                           : nn::MseLoss(y, labels_, normalizer, &dy_);
  for (float& v : dy_.vec()) v *= scale;
  model->Backward(&dy_);
  return value * static_cast<double>(scale);
}

namespace {

// One data-parallel worker: a full model replica whose parameters are
// refreshed from the master before each sharded step and whose gradients
// are reduced back afterwards.
struct Replica {
  explicit Replica(const ModelConfig& config) : model(config) {
    params = model.Parameters();
  }
  MscnModel model;
  std::vector<nn::Parameter*> params;
  TrainingStep step;
  double loss = 0;          // shard loss scaled by shard/batch size
  double busy_seconds = 0;  // wall time inside the shard step
};

// One data-parallel training step: shards `batch_idx` contiguously across
// the replicas, runs the training step per shard concurrently (each shard's
// dy is scaled by shard/batch size so the summed gradients equal the
// full-batch mean gradient), then reduces gradients into the master
// parameters in replica order — deterministic for a fixed thread count.
// Returns the full-batch mean loss; master grads must be zero on entry
// (true after optimizer.ZeroGrad()).
double ShardedBatchGradients(const std::vector<nn::Parameter*>& master_params,
                             std::vector<std::unique_ptr<Replica>>& replicas,
                             const Dataset& dataset, const FeatureSpace& space,
                             std::span<const size_t> batch_idx,
                             const nn::LogNormalizer& normalizer,
                             LossKind loss_kind, double* busy_seconds_sum) {
  const size_t total = batch_idx.size();
  const size_t t_count = std::min(replicas.size(), total);
  util::ParallelFor(t_count, t_count, [&](size_t t) {
    util::WallTimer timer;
    Replica& rep = *replicas[t];
    const size_t lo = t * total / t_count;
    const size_t hi = (t + 1) * total / t_count;
    // Refresh the replica from the master (vec assignment reuses capacity).
    for (size_t pi = 0; pi < master_params.size(); ++pi) {
      rep.params[pi]->value.vec() = master_params[pi]->value.vec();
    }
    const float scale =
        static_cast<float>(hi - lo) / static_cast<float>(total);
    rep.loss = rep.step.Run(&rep.model, dataset, space,
                            batch_idx.subspan(lo, hi - lo), normalizer,
                            loss_kind, scale);
    rep.busy_seconds = timer.ElapsedSeconds();
  });
  double loss_sum = 0;
  for (size_t t = 0; t < t_count; ++t) {
    Replica& rep = *replicas[t];
    for (size_t pi = 0; pi < master_params.size(); ++pi) {
      nn::Axpy(1.0f, rep.params[pi]->grad, &master_params[pi]->grad);
      rep.params[pi]->grad.Zero();
    }
    loss_sum += rep.loss;
    *busy_seconds_sum += rep.busy_seconds;
  }
  return loss_sum;
}

}  // namespace

std::string TrainingReport::ToCsv() const {
  std::ostringstream os;
  os << "epoch,train_loss,val_mean_q,val_median_q,seconds\n";
  for (const auto& e : epochs) {
    os << e.epoch << "," << e.train_loss << "," << e.validation_mean_q << ","
       << e.validation_median_q << "," << e.seconds << "\n";
  }
  return os.str();
}

Result<TrainingReport> Trainer::Train(MscnModel* model, const Dataset& dataset,
                                      const FeatureSpace& space) const {
  if (dataset.size() == 0) {
    return Status::InvalidArgument("cannot train on an empty dataset");
  }
  if (options_.batch_size == 0 || options_.epochs == 0) {
    return Status::InvalidArgument("epochs and batch_size must be positive");
  }
  util::Pcg32 rng(options_.seed);

  // Split train/validation.
  std::vector<size_t> indices(dataset.size());
  std::iota(indices.begin(), indices.end(), 0);
  rng.Shuffle(&indices);
  size_t num_val = static_cast<size_t>(
      options_.validation_fraction * static_cast<double>(dataset.size()));
  num_val = std::min(num_val, dataset.size() - 1);
  std::vector<size_t> val_idx(indices.begin(), indices.begin() + num_val);
  std::vector<size_t> train_idx(indices.begin() + num_val, indices.end());

  TrainingReport report;
  // "We logarithmize and then normalize cardinalities using the maximum
  // cardinality present in the training data."
  {
    std::vector<uint64_t> train_cards;
    train_cards.reserve(train_idx.size());
    for (size_t i : train_idx) {
      train_cards.push_back(static_cast<uint64_t>(dataset.labels[i]));
    }
    report.normalizer = nn::LogNormalizer::Fit(train_cards);
  }

  std::vector<nn::Parameter*> master_params = model->Parameters();
  nn::Adam optimizer(master_params, options_.learning_rate);
  util::WallTimer total_timer;

  // Data-parallel workers (threads > 1): one model replica per worker,
  // created once and reused across every minibatch.
  const size_t num_threads = std::max<size_t>(options_.threads, 1);
  std::vector<std::unique_ptr<Replica>> replicas;
  for (size_t t = 0; num_threads > 1 && t < num_threads; ++t) {
    replicas.push_back(std::make_unique<Replica>(model->config()));
  }

  TrainingStep step;  // the sequential path's
  double busy_seconds_sum = 0;   // worker busy time, for efficiency export
  double epoch_wall_seconds = 0; // parallel-section wall time

  for (size_t epoch = 1; epoch <= options_.epochs; ++epoch) {
    obs::Span epoch_span("train_epoch", epoch);
    util::WallTimer epoch_timer;
    rng.Shuffle(&train_idx);
    double loss_sum = 0;
    size_t num_batches = 0;
    busy_seconds_sum = 0;
    for (size_t off = 0; off < train_idx.size();
         off += options_.batch_size) {
      const size_t end = std::min(off + options_.batch_size, train_idx.size());
      const std::span<const size_t> batch_idx(train_idx.data() + off,
                                              end - off);
      const double loss =
          num_threads <= 1
              ? step.Run(model, dataset, space, batch_idx, report.normalizer,
                         options_.loss)
              : ShardedBatchGradients(master_params, replicas, dataset, space,
                                      batch_idx, report.normalizer,
                                      options_.loss, &busy_seconds_sum);
      optimizer.Step();
      optimizer.ZeroGrad();
      loss_sum += loss;
      ++num_batches;
    }
    epoch_wall_seconds = epoch_timer.ElapsedSeconds();

    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = loss_sum / static_cast<double>(num_batches);
    if (!val_idx.empty()) {
      auto preds = PredictIndices(model, dataset, space, report.normalizer,
                                  val_idx, options_.batch_size);
      std::vector<double> q;
      q.reserve(val_idx.size());
      for (size_t i = 0; i < val_idx.size(); ++i) {
        q.push_back(util::QError(dataset.labels[val_idx[i]], preds[i]));
      }
      stats.validation_mean_q = util::Mean(q);
      stats.validation_median_q = util::Median(q);
    }
    stats.seconds = epoch_timer.ElapsedSeconds();
    stats.examples_per_sec =
        stats.seconds > 0
            ? static_cast<double>(train_idx.size()) / stats.seconds
            : 0.0;
    if (options_.obs_registry != nullptr) {
      obs::Registry* r = options_.obs_registry;
      r->GetCounter("ds_train_epochs_total", "Completed training epochs")
          ->Add(1);
      r->GetCounter("ds_train_examples_total",
                    "Training examples consumed across epochs")
          ->Add(train_idx.size());
      r->GetGauge("ds_train_loss", "Mean training loss, last epoch")
          ->Set(stats.train_loss);
      r->GetGauge("ds_train_val_mean_q",
                  "Validation mean q-error, last epoch")
          ->Set(stats.validation_mean_q);
      r->GetGauge("ds_train_val_median_q",
                  "Validation median q-error, last epoch")
          ->Set(stats.validation_median_q);
      r->GetHistogram("ds_train_epoch_ms", "Milliseconds per epoch")
          ->Observe(static_cast<uint64_t>(stats.seconds * 1e3));
      r->GetGauge("ds_train_threads",
                  "Data-parallel training worker threads")
          ->Set(static_cast<double>(num_threads));
      if (num_threads > 1 && epoch_wall_seconds > 0) {
        r->GetGauge("ds_train_parallel_efficiency",
                    "Worker busy seconds / (threads x epoch wall seconds), "
                    "last epoch")
            ->Set(busy_seconds_sum /
                  (static_cast<double>(num_threads) * epoch_wall_seconds));
      }
    }
    if (options_.on_epoch) options_.on_epoch(stats);
    report.epochs.push_back(stats);
  }
  // The trained model serves from here on; its training buffers would stay
  // resident with it.
  model->ReleaseTrainingState();
  report.total_seconds = total_timer.ElapsedSeconds();
  return report;
}

std::vector<double> Trainer::PredictIndices(
    MscnModel* model, const Dataset& dataset, const FeatureSpace& space,
    const nn::LogNormalizer& normalizer, const std::vector<size_t>& indices,
    size_t batch_size) {
  std::vector<double> out;
  out.reserve(indices.size());
  SparseBatch batch;
  for (size_t off = 0; off < indices.size(); off += batch_size) {
    const size_t end = std::min(off + batch_size, indices.size());
    PackTrainingBatch(dataset, {indices.data() + off, end - off}, space,
                      &batch);
    const nn::Tensor& y = model->Forward(batch);
    for (size_t i = 0; i < end - off; ++i) {
      out.push_back(normalizer.Denormalize(static_cast<double>(y.at(i))));
    }
  }
  return out;
}

std::vector<double> Trainer::Predict(MscnModel* model, const Dataset& dataset,
                                     const FeatureSpace& space,
                                     const nn::LogNormalizer& normalizer,
                                     size_t batch_size) {
  std::vector<size_t> indices(dataset.size());
  std::iota(indices.begin(), indices.end(), 0);
  return PredictIndices(model, dataset, space, normalizer, indices,
                        batch_size);
}

std::vector<double> Trainer::QErrors(const std::vector<double>& predictions,
                                     const Dataset& dataset) {
  DS_CHECK_EQ(predictions.size(), dataset.size());
  std::vector<double> q;
  q.reserve(predictions.size());
  for (size_t i = 0; i < predictions.size(); ++i) {
    q.push_back(util::QError(dataset.labels[i], predictions[i]));
  }
  return q;
}

}  // namespace ds::mscn
