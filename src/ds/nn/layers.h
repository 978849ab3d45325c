// Neural-network layers with explicit forward/backward passes.
//
// Each layer remembers what its backward pass needs: a pointer to its input
// (which must outlive the Backward) and its output, which it owns. Forward
// and Backward write into tensors the layers keep, resized in place, so a
// warm training step allocates nothing. Gradients accumulate into
// Parameter::grad until the optimizer consumes them (call ZeroGrad between
// steps). All layers operate on 2D activations [batch, features]; the MSCN
// model runs its set MLPs on one row per set element.
//
// Linear and Mlp additionally provide const `InferInto`/`InferSparseInto`
// paths that compute Forward's outputs into caller-owned tensors without
// touching the backward state. They read only the (immutable after
// training) weights, so any number of threads may run them on a shared
// model concurrently — the property the serving layer (ds::serve) relies
// on. `Forward` remains the training path and is not thread-safe.

#ifndef DS_NN_LAYERS_H_
#define DS_NN_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "ds/nn/kernels.h"
#include "ds/nn/tensor.h"
#include "ds/nn/workspace.h"
#include "ds/util/random.h"
#include "ds/util/serialize.h"
#include "ds/util/status.h"

namespace ds::nn {

/// A trainable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  explicit Parameter(std::string n, std::vector<size_t> shape)
      : name(std::move(n)), value(shape), grad(shape) {}
};

/// Fully connected layer: y = x W + b, x [N,in] -> y [N,out].
class Linear {
 public:
  Linear(std::string name, size_t in, size_t out);

  /// He-uniform initialization (suits the ReLU nets the MSCN uses).
  void Initialize(util::Pcg32* rng);

  /// Training forward: y = x W + b into the layer's output, which is
  /// returned (a following activation may rewrite it in place) and stays
  /// valid until the next Forward. Remembers `x`, which must outlive the
  /// Backward.
  Tensor& Forward(const Tensor& x);
  /// Same with the input in CSR form (a set MLP's featurized rows); only
  /// the nonzeros are multiplied, bit-for-bit the dense Forward.
  Tensor& Forward(const SparseRows& x);

  /// Accumulates dL/dW and dL/db from dy; must follow a Forward. Returns
  /// dL/dx in a tensor the layer owns (valid until the next Backward), or
  /// null after a sparse Forward: that input is features, so nothing
  /// consumes its gradient and it is not computed.
  Tensor* Backward(const Tensor& dy);

  /// Frees the training state (output, input gradient, transpose scratch);
  /// the next Forward rebuilds it.
  void ReleaseTrainingState();

  /// Fused allocation-free inference: *y = x W + b, then ReLU when
  /// `fuse_relu`. `y` is resized in place (zero-allocation once warm) and
  /// must not alias `x`. Const, safe to call concurrently; bit-for-bit
  /// Forward (+ ReLU) while unpacked.
  void InferInto(const Tensor& x, bool fuse_relu, Tensor* y) const;

  /// Same, with the input in CSR form (the featurized one-hot rows).
  void InferSparseInto(const SparseRows& x, bool fuse_relu, Tensor* y) const;

  /// Builds (kInt8/kFp16) or clears (kFp32) the packed inference copy of
  /// the weights; both Infer*Into paths route through it once set, while
  /// Forward/Backward keep reading the fp32 parameters. Pack after
  /// training: optimizer steps do not refresh the packed copy.
  void Pack(QuantMode mode);

  /// The storage format the inference paths currently read.
  QuantMode quant_mode() const {
    return packed_ ? packed_->mode : QuantMode::kFp32;
  }
  /// Null when unpacked (fp32 inference).
  const PackedLinear* packed() const { return packed_.get(); }

  /// Packed-weight persistence (sketch format v2). WritePacked always
  /// emits a record — an empty kFp32 one when unpacked — so the stream
  /// stays self-describing; ReadPacked validates shape against this layer.
  void WritePacked(util::BinaryWriter* writer) const;
  Status ReadPacked(util::BinaryReader* reader);

  std::vector<Parameter*> Parameters() { return {&weight_, &bias_}; }
  size_t in_features() const { return weight_.value.dim(0); }
  size_t out_features() const { return weight_.value.dim(1); }

 private:
  Parameter weight_;  // [in, out]
  Parameter bias_;    // [out]
  // Immutable once built; shared so copied Linears (models are registry
  // values) alias one packed copy instead of re-packing.
  std::shared_ptr<const PackedLinear> packed_;
  // Training state: the last Forward's input (exactly one is set), its
  // output, the input gradient and the sparse input's transpose.
  const Tensor* x_ = nullptr;
  const SparseRows* sparse_x_ = nullptr;
  Tensor y_;
  Tensor dx_;
  SparseRows xt_;
};

/// Elementwise max(0, x), in place. Forward remembers its output for
/// Backward: the gradient mask is recoverable from the output alone
/// (y == 0 iff x <= 0), so no copy is kept.
class ReLU {
 public:
  /// x = max(0, x); `x` must outlive the Backward.
  void Forward(Tensor* x);
  /// dy = 0 where the output was 0, in place.
  void Backward(Tensor* dy) const;

  /// In-place max(0, x) with no backward state (inference path).
  static void ApplyInPlace(Tensor* x);

 private:
  const Tensor* y_ = nullptr;
};

/// Elementwise logistic sigmoid, in place; the backward pass needs only
/// the output.
class Sigmoid {
 public:
  /// x = 1 / (1 + exp(-x)); `x` must outlive the Backward.
  void Forward(Tensor* x);
  /// dy *= y (1 - y), in place.
  void Backward(Tensor* dy) const;

  /// In-place sigmoid with no backward state (inference path).
  static void ApplyInPlace(Tensor* x);

 private:
  const Tensor* y_ = nullptr;
};

/// A stack of Linear+ReLU blocks: sizes = {in, h1, ..., out}. The final
/// layer's ReLU is optional (the MSCN set modules use ReLU everywhere; the
/// output head ends in a bare Linear followed by an external Sigmoid).
class Mlp {
 public:
  Mlp(std::string name, const std::vector<size_t>& sizes,
      bool final_activation);

  void Initialize(util::Pcg32* rng);
  /// Training forward; returns the last layer's output (valid until the
  /// next Forward). The input must outlive the Backward.
  Tensor& Forward(const Tensor& x);
  /// Same, feeding the first layer from CSR rows.
  Tensor& Forward(const SparseRows& x);
  /// Backpropagates dy, which the ReLUs mask in place; returns dL/dx (owned
  /// by the first layer) or null after a sparse Forward.
  Tensor* Backward(Tensor* dy);
  /// Frees every layer's training state.
  void ReleaseTrainingState();

  /// Workspace-backed inference through the fused kernels: acquires two
  /// ping-pong slots from `ws` and returns a pointer to the one holding the
  /// output (valid until ws->Reset()). Bit-for-bit identical to Forward
  /// while unpacked. Concurrent calls are safe with distinct workspaces.
  Tensor* InferInto(const Tensor& x, Workspace* ws) const;

  /// Same, feeding the first layer from CSR rows (the MSCN's sparse
  /// featurized inputs); later layers run dense.
  Tensor* InferSparseInto(const SparseRows& x, Workspace* ws) const;

  /// Packs (or unpacks, for kFp32) every layer's weights for inference.
  void Pack(QuantMode mode);
  /// The mode the layers are packed in (layers always agree).
  QuantMode quant_mode() const { return layers_.front().quant_mode(); }

  /// Packed-weight persistence across all layers, in order.
  void WritePacked(util::BinaryWriter* writer) const;
  Status ReadPacked(util::BinaryReader* reader);

  std::vector<Parameter*> Parameters();

  size_t in_features() const { return layers_.front().in_features(); }
  size_t out_features() const { return layers_.back().out_features(); }

 private:
  /// The rest of Forward once the first layer has written `h`.
  Tensor& ForwardFrom(Tensor* h);

  std::vector<Linear> layers_;
  std::vector<ReLU> relus_;  // relus_[i] follows layers_[i] where applicable
  bool final_activation_;
};

/// Mean pooling over sets of elements — the Deep Sets style pooling at the
/// heart of the MSCN (§2 of the paper). The model pools through
/// PoolSlotsInto and its backward, PoolSlotsBackward, over one row per
/// element; Forward and PoolInto pool a padded layout through a mask and
/// are the references the tests hold the padding-free path to.
class MaskedMean {
 public:
  /// `flat` is [B*S, H]; `mask` is [B, S] (1 = real element, 0 = padding).
  /// Returns the per-set average [B, H] over real elements; a set with no
  /// real elements yields a zero vector.
  static Tensor Forward(const Tensor& flat, const Tensor& mask);

  /// Allocation-free Forward: `out` is resized in place to [B, H].
  /// Bit-for-bit identical to Forward.
  static void PoolInto(const Tensor& flat, const Tensor& mask, Tensor* out);

  /// Mean pooling without padding: set i averages rows
  /// slots[offsets[i]], ..., slots[offsets[i + 1] - 1] of `rows` [R, H]
  /// (`offsets` has B + 1 entries); `out` is resized in place to [B, H].
  /// Adds in the same order as PoolInto over the padded equivalent, so the
  /// two are bit-for-bit identical.
  static void PoolSlotsInto(const Tensor& rows,
                            const std::vector<uint32_t>& offsets,
                            const std::vector<uint32_t>& slots, Tensor* out);

  /// Backward of PoolSlotsInto when each element has its own row (the
  /// slots are the identity): row e of set i becomes (1/n_i) · dy[i], for
  /// n_i = offsets[i + 1] - offsets[i]. `drows` is resized in place to
  /// [offsets.back(), H]. An empty set has no rows to receive a gradient.
  static void PoolSlotsBackward(const Tensor& dy,
                                const std::vector<uint32_t>& offsets,
                                Tensor* drows);
};

// ---- Parameter persistence -----------------------------------------------------

/// Writes all parameters (shape + data) in order.
void WriteParameters(const std::vector<Parameter*>& params,
                     util::BinaryWriter* writer);

/// Restores parameters written by WriteParameters into an identically
/// structured parameter list; fails on shape or name mismatch.
Status ReadParameters(util::BinaryReader* reader,
                      const std::vector<Parameter*>& params);

}  // namespace ds::nn

#endif  // DS_NN_LAYERS_H_
