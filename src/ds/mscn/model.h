// The multi-set convolutional network (MSCN).
//
// Architecture (paper §2): "For each set, it has a separate module,
// comprised of one fully-connected multi-layer perceptron per set element
// with shared parameters. We average module outputs, concatenate them, and
// feed them into a final output MLP, which captures correlations between
// sets and outputs a cardinality estimate."
//
//   table set  -> MLP_t (shared over elements) -> mean ┐
//   join set   -> MLP_j                        -> mean ┼ concat -> MLP_out -> sigmoid
//   pred set   -> MLP_p                        -> mean ┘
//
// The sigmoid output is a normalized log-cardinality (see nn::LogNormalizer).

#ifndef DS_MSCN_MODEL_H_
#define DS_MSCN_MODEL_H_

#include <vector>

#include "ds/mscn/dataset.h"
#include "ds/nn/layers.h"
#include "ds/util/random.h"
#include "ds/util/serialize.h"

namespace ds::mscn {

struct ModelConfig {
  size_t table_dim = 0;  // from FeatureSpace
  size_t join_dim = 0;
  size_t pred_dim = 0;
  /// Width of every hidden layer and of each set's pooled representation.
  size_t hidden_units = 64;

  void Write(util::BinaryWriter* writer) const;
  static Result<ModelConfig> Read(util::BinaryReader* reader);
};

class MscnModel {
 public:
  explicit MscnModel(const ModelConfig& config);

  void Initialize(util::Pcg32* rng);

  /// Training forward pass; returns sigmoid outputs [B, 1], valid until
  /// the next Forward. `batch` comes from PackTrainingBatch (one row per
  /// element) and must outlive the Backward: the set MLPs' first layers
  /// read its CSR rows without copying them. The activations stay in the
  /// model's layers, so a warm pass allocates nothing. Training only, not
  /// thread-safe.
  const nn::Tensor& Forward(const SparseBatch& batch);

  /// Backpropagates dLoss/dOutput [B, 1] (`dy` is rewritten in place);
  /// gradients accumulate in the parameters. Must follow a Forward. The
  /// set MLPs' first layers compute no input gradient.
  void Backward(nn::Tensor* dy);

  /// Frees the activations and scratch Forward and Backward keep, so a
  /// trained model holds only what inference reads.
  void ReleaseTrainingState();

  /// Inference-only forward over a padded dense batch through the fused
  /// kernels; touches no mutable state. All intermediates live in `ws`;
  /// the returned tensor points into `ws` and is valid until ws->Reset().
  /// The dense reference the parity tests hold InferSparse and Forward to.
  const nn::Tensor* InferInto(const Batch& batch, nn::Workspace* ws) const;

  /// The serving forward: CSR feature rows feed the first layer of each
  /// set-MLP (featurized one-hot rows are overwhelmingly zero). Each set-MLP
  /// runs on the batch's packed rows only — no padding, and a repeated row
  /// once — and pools through the element -> row map; the result is
  /// bit-for-bit InferInto's on the padded equivalent. Const, so concurrent
  /// calls on a shared model are safe once training is done; a warm
  /// workspace (one per thread) makes the pass allocation-free.
  const nn::Tensor* InferSparse(const SparseBatch& batch,
                                nn::Workspace* ws) const;

  std::vector<nn::Parameter*> Parameters();
  size_t NumParameters() const;

  const ModelConfig& config() const { return config_; }

  /// Packs (kInt8/kFp16) or unpacks (kFp32) every Linear's weights for the
  /// inference paths; the fp32 parameters stay untouched (training and the
  /// parity gates keep reading them). Pack after training — optimizer
  /// steps do not refresh packed copies.
  void Pack(nn::QuantMode mode);
  nn::QuantMode quant_mode() const { return table_mlp_.quant_mode(); }

  /// Serializes config + weights.
  void Write(util::BinaryWriter* writer);
  static Result<MscnModel> Read(util::BinaryReader* reader);

  /// Packed-weight section (sketch format v2): always writes one record
  /// per Linear (empty kFp32 records when unpacked).
  void WritePacked(util::BinaryWriter* writer) const;
  Status ReadPacked(util::BinaryReader* reader);

 private:
  /// Shared tail of the workspace inference paths: concatenate the three
  /// pooled set representations [B, H], output MLP, sigmoid.
  const nn::Tensor* InferTail(const nn::Tensor& t, const nn::Tensor& j,
                              const nn::Tensor& p, nn::Workspace* ws) const;

  ModelConfig config_;
  nn::Mlp table_mlp_;
  nn::Mlp join_mlp_;
  nn::Mlp pred_mlp_;
  nn::Mlp out_mlp_;
  nn::Sigmoid out_sigmoid_;
  // Training state: the batch of the last Forward, each set's pooled
  // representation [B, H] and its gradient, each set's per-element
  // gradient [R, H], and the concatenated pooled rows [B, 3H].
  const SparseBatch* batch_ = nullptr;
  nn::Tensor pooled_[3];
  nn::Tensor dpooled_[3];
  nn::Tensor delements_[3];
  nn::Tensor concat_;
};

}  // namespace ds::mscn

#endif  // DS_MSCN_MODEL_H_
