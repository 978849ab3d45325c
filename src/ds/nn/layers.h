// Neural-network layers with explicit forward/backward passes.
//
// Each layer caches what its backward pass needs. Gradients accumulate into
// Parameter::grad until the optimizer consumes them (call ZeroGrad between
// steps). All layers operate on 2D activations [batch, features]; the MSCN
// model flattens set dimensions into the batch dimension before calling
// into them.
//
// Every layer additionally provides a const `Infer` path that computes the
// same outputs without touching the backward caches. Inference through
// `Infer` reads only the (immutable after training) weights, so any number
// of threads may run it on a shared model concurrently — the property the
// serving layer (ds::serve) relies on. `Forward` remains the training path
// and is not thread-safe.

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

  Tensor Forward(const Tensor& x);
  /// Returns dL/dx; accumulates dL/dW and dL/db. Must follow a Forward.
  Tensor Backward(const Tensor& dy);

  /// Forward without caching: const, safe to call concurrently.
  Tensor Infer(const Tensor& x) const;

  /// Fused allocation-free inference: *y = x W + b, then ReLU when
  /// `fuse_relu`. `y` is resized in place (zero-allocation once warm) and
  /// must not alias `x`. Bit-for-bit identical to Infer (+ ApplyInPlace).
  void InferInto(const Tensor& x, bool fuse_relu, Tensor* y) const;

  /// Same, with the input in CSR form (the featurized one-hot rows).
  void InferSparseInto(const SparseRows& x, bool fuse_relu, Tensor* y) const;

  /// Builds (kInt8/kFp16) or clears (kFp32) the packed inference copy of
  /// the weights; all Infer* paths route through it once set, while
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
  Tensor cached_x_;
};

/// Elementwise max(0, x). Takes its input by value so callers holding an
/// rvalue activation move it in; the activation is applied in place and one
/// copy is kept for Backward (the output doubles as the cache — the ReLU
/// gradient mask is recoverable from the output alone).
class ReLU {
 public:
  Tensor Forward(Tensor x);
  Tensor Backward(const Tensor& dy);

  /// In-place max(0, x) with no caching (inference path).
  static void ApplyInPlace(Tensor* x);

 private:
  Tensor cached_y_;
};

/// Elementwise logistic sigmoid (by-value input for the same reason as
/// ReLU; the backward pass needs only the output).
class Sigmoid {
 public:
  Tensor Forward(Tensor x);
  Tensor Backward(const Tensor& dy);

  /// In-place sigmoid with no caching (inference path).
  static void ApplyInPlace(Tensor* x);

 private:
  Tensor cached_y_;
};

/// A stack of Linear+ReLU blocks: sizes = {in, h1, ..., out}. The final
/// layer's ReLU is optional (the MSCN set modules use ReLU everywhere; the
/// output head ends in a bare Linear followed by an external Sigmoid).
class Mlp {
 public:
  Mlp(std::string name, const std::vector<size_t>& sizes,
      bool final_activation);

  void Initialize(util::Pcg32* rng);
  Tensor Forward(const Tensor& x);
  Tensor Backward(const Tensor& dy);
  /// Forward without caching: const, safe to call concurrently.
  Tensor Infer(const Tensor& x) const;

  /// Workspace-backed inference through the fused kernels: acquires two
  /// ping-pong slots from `ws` and returns a pointer to the one holding the
  /// output (valid until ws->Reset()). Bit-for-bit identical to Infer.
  /// Concurrent calls are safe with distinct workspaces.
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
  std::vector<Linear> layers_;
  std::vector<ReLU> relus_;  // relus_[i] follows layers_[i] where applicable
  bool final_activation_;
};

/// Masked mean over a set dimension: given per-element features
/// flat [B*S, H] and a mask [B, S] (1 = real element, 0 = padding), produces
/// the per-set average [B, H] over real elements. This is the Deep Sets
/// style pooling at the heart of the MSCN (§2 of the paper).
class MaskedMean {
 public:
  /// `flat` is [B*S, H]; `mask` is [B, S]. A set with no real elements
  /// yields a zero vector.
  Tensor Forward(const Tensor& flat, const Tensor& mask);
  /// dy is [B, H]; returns gradient for `flat` [B*S, H].
  Tensor Backward(const Tensor& dy);

  /// Stateless pooling (inference path): same math as Forward, no caches.
  static Tensor Pool(const Tensor& flat, const Tensor& mask);

  /// Allocation-free Pool: `out` is resized in place to [B, H]. Bit-for-bit
  /// identical to Pool.
  static void PoolInto(const Tensor& flat, const Tensor& mask, Tensor* out);

  /// Mean pooling without padding: set i averages rows
  /// slots[offsets[i]], ..., slots[offsets[i + 1] - 1] of `rows` [R, H]
  /// (`offsets` has B + 1 entries); `out` is resized in place to [B, H].
  /// Adds in the same order as PoolInto over the padded equivalent, so the
  /// two are bit-for-bit identical.
  static void PoolSlotsInto(const Tensor& rows,
                            const std::vector<uint32_t>& offsets,
                            const std::vector<uint32_t>& slots, Tensor* out);

 private:
  Tensor cached_mask_;
  std::vector<float> cached_counts_;  // real elements per set
  size_t cached_h_ = 0;
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
