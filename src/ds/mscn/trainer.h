// Training loop — step 4 of Figure 1a.
//
// Mini-batch training with Adam, minimizing the mean q-error (or,
// for ablation, MSE in normalized-log space). Reports per-epoch training
// loss and validation q-error; the demo's TensorBoard monitoring maps to
// the progress callback plus an optional CSV training log.

#ifndef DS_MSCN_TRAINER_H_
#define DS_MSCN_TRAINER_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "ds/mscn/dataset.h"
#include "ds/mscn/model.h"
#include "ds/nn/loss.h"
#include "ds/obs/metrics.h"
#include "ds/util/stats.h"

namespace ds::mscn {

enum class LossKind : uint8_t {
  kQError = 0,  // the paper's objective
  kMse = 1,     // ablation
};

struct EpochStats {
  size_t epoch = 0;
  double train_loss = 0;        // mean loss over training batches
  double validation_mean_q = 0; // mean q-error on the validation split
  double validation_median_q = 0;
  double seconds = 0;           // wall time of this epoch
  double examples_per_sec = 0;  // training examples / seconds
};

struct TrainingReport {
  std::vector<EpochStats> epochs;
  nn::LogNormalizer normalizer;
  double total_seconds = 0;

  /// Writes "epoch,train_loss,val_mean_q,val_median_q,seconds" rows — the
  /// machine-readable training curve (the demo's training monitor).
  std::string ToCsv() const;
};

struct TrainerOptions {
  size_t epochs = 30;       // paper: "25 epochs are usually enough"
  size_t batch_size = 128;
  float learning_rate = 1e-3f;
  LossKind loss = LossKind::kQError;
  /// Fraction of the dataset held out for validation (0 disables).
  double validation_fraction = 0.1;
  uint64_t seed = 99;
  /// Data-parallel worker threads per minibatch. Each worker holds a full
  /// model replica; a minibatch is sharded contiguously across workers, each
  /// runs the training step on its shard (dy scaled by shard/batch size so
  /// the sum equals the full-batch mean gradient), gradients are reduced in
  /// worker order, and one optimizer step is applied. `threads == 1` runs
  /// the step on the model itself (bit-identical losses); more threads
  /// reproduce the same gradients up to float summation order.
  size_t threads = 1;
  /// Called after every epoch (for progress UIs).
  std::function<void(const EpochStats&)> on_epoch;
  /// When set, the loop exports per-epoch instruments into this registry:
  /// ds_train_epochs_total / ds_train_examples_total counters,
  /// ds_train_loss / ds_train_val_{mean,median}_q gauges, and a
  /// ds_train_epoch_ms histogram. Null disables (no obs dependency on the
  /// hot path beyond one branch per epoch).
  obs::Registry* obs_registry = nullptr;
};

/// One training step and its scratch: the packed batch, its labels and the
/// loss gradient (the model keeps the activations). The trainer runs one on
/// the model for the sequential path and one per data-parallel replica.
/// Each buffer is reserved to the batch's totals, so a step on a batch no
/// larger than an earlier one allocates nothing.
class TrainingStep {
 public:
  /// Packs `indices` of `dataset`, runs the forward pass, the loss and the
  /// backward pass on `model`. Gradients accumulate in the model's
  /// parameters, with dLoss/dy scaled by `scale` (a shard's share of its
  /// batch). Returns the loss times `scale`.
  double Run(MscnModel* model, const Dataset& dataset,
             const FeatureSpace& space, std::span<const size_t> indices,
             const nn::LogNormalizer& normalizer, LossKind loss,
             float scale = 1.0f);

 private:
  SparseBatch batch_;
  std::vector<double> labels_;
  nn::Tensor dy_;
};

class Trainer {
 public:
  explicit Trainer(TrainerOptions options) : options_(std::move(options)) {}

  /// Trains `model` in place on `dataset`; fits the label normalizer on the
  /// training split. The dataset must be non-empty.
  Result<TrainingReport> Train(MscnModel* model, const Dataset& dataset,
                               const FeatureSpace& space) const;

  /// Predicted cardinalities for every query of `dataset` (no training).
  static std::vector<double> Predict(MscnModel* model, const Dataset& dataset,
                                     const FeatureSpace& space,
                                     const nn::LogNormalizer& normalizer,
                                     size_t batch_size = 128);

  /// Predicted cardinalities for a subset of `dataset`, through the training
  /// forward (which rewrites the model's activations).
  static std::vector<double> PredictIndices(
      MscnModel* model, const Dataset& dataset, const FeatureSpace& space,
      const nn::LogNormalizer& normalizer, const std::vector<size_t>& indices,
      size_t batch_size = 128);

  /// Per-query q-errors of predictions against the dataset labels.
  static std::vector<double> QErrors(const std::vector<double>& predictions,
                                     const Dataset& dataset);

 private:
  TrainerOptions options_;
};

}  // namespace ds::mscn

#endif  // DS_MSCN_TRAINER_H_
