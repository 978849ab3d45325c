// The multi-set convolutional network (MSCN).
//
// Architecture (paper §2): "For each set, it has a separate module,
// comprised of one fully-connected multi-layer perceptron per set element
// with shared parameters. We average module outputs, concatenate them, and
// feed them into a final output MLP, which captures correlations between
// sets and outputs a cardinality estimate."
//
//   table set  -> MLP_t (shared over elements) -> masked mean ┐
//   join set   -> MLP_j                        -> masked mean ┼ concat -> MLP_out -> sigmoid
//   pred set   -> MLP_p                        -> masked mean ┘
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

  /// Forward pass over a padded batch; returns sigmoid outputs [B, 1].
  /// Caches activations for Backward — training only, not thread-safe.
  nn::Tensor Forward(const Batch& batch);

  /// Backpropagates dLoss/dOutput [B, 1]; gradients accumulate in the
  /// parameters. Must follow a Forward on the same batch.
  void Backward(const nn::Tensor& dy);

  /// Inference-only forward over a padded batch through the fused kernels:
  /// Forward's outputs, but touches no mutable state, so concurrent calls
  /// on a shared model are safe once training is done. All intermediates
  /// live in `ws`, so a warm workspace makes the pass allocation-free. The
  /// returned tensor points into `ws` and is valid until ws->Reset(). One
  /// workspace per thread. The dense reference the parity tests hold
  /// InferSparse to.
  const nn::Tensor* InferInto(const Batch& batch, nn::Workspace* ws) const;

  /// Same, with CSR feature rows feeding the first layer of each set-MLP
  /// (the serving hot path: featurized one-hot rows are overwhelmingly
  /// zero). Each set-MLP runs on the batch's packed rows only — no padding,
  /// and a repeated row once — and pools through the element -> row map;
  /// the result is bit-for-bit InferInto's on the padded equivalent.
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
  nn::MaskedMean table_pool_;
  nn::MaskedMean join_pool_;
  nn::MaskedMean pred_pool_;
  nn::Mlp out_mlp_;
  nn::Sigmoid out_sigmoid_;
};

}  // namespace ds::mscn

#endif  // DS_MSCN_MODEL_H_
