#include "ds/nn/layers.h"

#include <cmath>
#include <utility>

namespace ds::nn {

// ---- Linear --------------------------------------------------------------------

Linear::Linear(std::string name, size_t in, size_t out)
    : weight_(name + ".weight", {in, out}), bias_(name + ".bias", {out}) {}

void Linear::Initialize(util::Pcg32* rng) {
  const size_t in = weight_.value.dim(0);
  const float bound = std::sqrt(6.0f / static_cast<float>(in));
  for (float& w : weight_.value.vec()) {
    w = static_cast<float>(rng->UniformDouble(-bound, bound));
  }
  bias_.value.Zero();
}

Tensor& Linear::Forward(const Tensor& x) {
  DS_CHECK_EQ(x.rank(), 2u);
  x_ = &x;
  sparse_x_ = nullptr;
  LinearBiasActInto(x, weight_.value, bias_.value, /*fuse_relu=*/false, &y_);
  return y_;
}

Tensor& Linear::Forward(const SparseRows& x) {
  x_ = nullptr;
  sparse_x_ = &x;
  SparseLinearBiasActInto(x, weight_.value, bias_.value, /*fuse_relu=*/false,
                          &y_);
  return y_;
}

void Linear::InferInto(const Tensor& x, bool fuse_relu, Tensor* y) const {
  if (packed_) {
    LinearBiasActPackedInto(x, *packed_, bias_.value, fuse_relu, y);
  } else {
    LinearBiasActInto(x, weight_.value, bias_.value, fuse_relu, y);
  }
}

void Linear::InferSparseInto(const SparseRows& x, bool fuse_relu,
                             Tensor* y) const {
  if (packed_) {
    SparseLinearBiasActPackedInto(x, *packed_, bias_.value, fuse_relu, y);
  } else {
    SparseLinearBiasActInto(x, weight_.value, bias_.value, fuse_relu, y);
  }
}

void Linear::Pack(QuantMode mode) {
  if (mode == QuantMode::kFp32) {
    packed_.reset();
    return;
  }
  packed_ = std::make_shared<const PackedLinear>(
      PackWeights(weight_.value, mode));
}

void Linear::WritePacked(util::BinaryWriter* writer) const {
  if (packed_ != nullptr) {
    packed_->Write(writer);
    return;
  }
  PackedLinear unpacked;
  unpacked.in = in_features();
  unpacked.out = out_features();
  unpacked.Write(writer);
}

Status Linear::ReadPacked(util::BinaryReader* reader) {
  Result<PackedLinear> read = PackedLinear::Read(reader);
  if (!read.ok()) return read.status();
  PackedLinear p = std::move(read).value();
  if (p.mode == QuantMode::kFp32) {
    packed_.reset();
    return Status::OK();
  }
  if (p.in != in_features() || p.out != out_features()) {
    return Status::ParseError(
        "packed weight shape [" + std::to_string(p.in) + "," +
        std::to_string(p.out) + "] disagrees with layer [" +
        std::to_string(in_features()) + "," + std::to_string(out_features()) +
        "]");
  }
  packed_ = std::make_shared<const PackedLinear>(std::move(p));
  return Status::OK();
}

Tensor* Linear::Backward(const Tensor& dy) {
  DS_CHECK(x_ != nullptr || sparse_x_ != nullptr);
  // db += column sums of dy ; dW += x^T dy ; dx = dy W^T (dense input only).
  SumRowsInto(dy, &bias_.grad);
  if (sparse_x_ != nullptr) {
    SparseMatMulTransposedAAccumulate(*sparse_x_, dy, &xt_, &weight_.grad);
    return nullptr;
  }
  MatMulTransposedAAccumulate(*x_, dy, &weight_.grad);
  MatMulTransposedBInto(dy, weight_.value, &dx_);
  return &dx_;
}

void Linear::ReleaseTrainingState() {
  x_ = nullptr;
  sparse_x_ = nullptr;
  y_ = Tensor();
  dx_ = Tensor();
  xt_ = SparseRows();
}

// ---- Activations ------------------------------------------------------------------

void ReLU::Forward(Tensor* x) {
  ApplyInPlace(x);
  y_ = x;
}

void ReLU::Backward(Tensor* dy) const {
  DS_CHECK(y_ != nullptr && dy->SameShape(*y_));
  const float* y = y_->data();
  float* d = dy->data();
  for (size_t i = 0; i < dy->size(); ++i) {
    if (y[i] == 0.0f) d[i] = 0.0f;
  }
}

void ReLU::ApplyInPlace(Tensor* x) {
  for (float& v : x->vec()) v = v > 0.0f ? v : 0.0f;
}

void Sigmoid::Forward(Tensor* x) {
  ApplyInPlace(x);
  y_ = x;
}

void Sigmoid::Backward(Tensor* dy) const {
  DS_CHECK(y_ != nullptr && dy->SameShape(*y_));
  const float* y = y_->data();
  float* d = dy->data();
  for (size_t i = 0; i < dy->size(); ++i) d[i] *= y[i] * (1.0f - y[i]);
}

void Sigmoid::ApplyInPlace(Tensor* x) {
  for (float& v : x->vec()) v = 1.0f / (1.0f + std::exp(-v));
}

// ---- Mlp ---------------------------------------------------------------------------

Mlp::Mlp(std::string name, const std::vector<size_t>& sizes,
         bool final_activation)
    : final_activation_(final_activation) {
  DS_CHECK_GE(sizes.size(), 2u);
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    layers_.emplace_back(name + ".fc" + std::to_string(i), sizes[i],
                         sizes[i + 1]);
  }
  relus_.resize(final_activation_ ? layers_.size() : layers_.size() - 1);
}

void Mlp::Initialize(util::Pcg32* rng) {
  for (auto& l : layers_) l.Initialize(rng);
}

Tensor& Mlp::Forward(const Tensor& x) {
  return ForwardFrom(&layers_[0].Forward(x));
}

Tensor& Mlp::Forward(const SparseRows& x) {
  return ForwardFrom(&layers_[0].Forward(x));
}

Tensor& Mlp::ForwardFrom(Tensor* h) {
  // Each ReLU runs in place on its layer's output, which the next layer
  // reads.
  if (!relus_.empty()) relus_[0].Forward(h);
  for (size_t i = 1; i < layers_.size(); ++i) {
    h = &layers_[i].Forward(*h);
    if (i < relus_.size()) relus_[i].Forward(h);
  }
  return *h;
}

Tensor* Mlp::InferInto(const Tensor& x, Workspace* ws) const {
  // Two ping-pong slots: layer i reads one and writes the other. The fused
  // kernel handles the bias add and (when a ReLU follows) the activation.
  Tensor* a = ws->Acquire();
  Tensor* b = ws->Acquire();
  const Tensor* in = &x;
  Tensor* out = a;
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].InferInto(*in, /*fuse_relu=*/i < relus_.size(), out);
    in = out;
    out = (out == a) ? b : a;
  }
  return const_cast<Tensor*>(in);
}

Tensor* Mlp::InferSparseInto(const SparseRows& x, Workspace* ws) const {
  Tensor* a = ws->Acquire();
  Tensor* b = ws->Acquire();
  layers_[0].InferSparseInto(x, /*fuse_relu=*/!relus_.empty(), a);
  Tensor* in = a;
  Tensor* out = b;
  for (size_t i = 1; i < layers_.size(); ++i) {
    layers_[i].InferInto(*in, /*fuse_relu=*/i < relus_.size(), out);
    std::swap(in, out);
  }
  return in;
}

Tensor* Mlp::Backward(Tensor* dy) {
  Tensor* d = dy;
  for (size_t i = layers_.size(); i-- > 0;) {
    if (i < relus_.size()) relus_[i].Backward(d);
    d = layers_[i].Backward(*d);
  }
  return d;
}

void Mlp::ReleaseTrainingState() {
  for (auto& l : layers_) l.ReleaseTrainingState();
}

void Mlp::Pack(QuantMode mode) {
  for (auto& l : layers_) l.Pack(mode);
}

void Mlp::WritePacked(util::BinaryWriter* writer) const {
  writer->WriteU64(layers_.size());
  for (const auto& l : layers_) l.WritePacked(writer);
}

Status Mlp::ReadPacked(util::BinaryReader* reader) {
  uint64_t n = 0;
  DS_RETURN_NOT_OK(reader->ReadU64(&n));
  if (n != layers_.size()) {
    return Status::ParseError("packed layer count mismatch: file has " +
                              std::to_string(n) + ", model has " +
                              std::to_string(layers_.size()));
  }
  for (auto& l : layers_) DS_RETURN_NOT_OK(l.ReadPacked(reader));
  return Status::OK();
}

std::vector<Parameter*> Mlp::Parameters() {
  std::vector<Parameter*> out;
  for (auto& l : layers_) {
    for (Parameter* p : l.Parameters()) out.push_back(p);
  }
  return out;
}

// ---- MaskedMean -----------------------------------------------------------------------

Tensor MaskedMean::Forward(const Tensor& flat, const Tensor& mask) {
  DS_CHECK_EQ(flat.rank(), 2u);
  DS_CHECK_EQ(mask.rank(), 2u);
  const size_t b = mask.dim(0), s = mask.dim(1), h = flat.dim(1);
  DS_CHECK_EQ(flat.dim(0), b * s);
  Tensor out({b, h});
  for (size_t i = 0; i < b; ++i) {
    float count = 0.0f;
    float* orow = out.data() + i * h;
    for (size_t j = 0; j < s; ++j) {
      const float m = mask.at(i, j);
      if (m == 0.0f) continue;
      count += m;
      const float* frow = flat.data() + (i * s + j) * h;
      for (size_t k = 0; k < h; ++k) orow[k] += m * frow[k];
    }
    if (count > 0.0f) {
      const float inv = 1.0f / count;
      for (size_t k = 0; k < h; ++k) orow[k] *= inv;
    }
  }
  return out;
}

void MaskedMean::PoolInto(const Tensor& flat, const Tensor& mask,
                          Tensor* out) {
  DS_CHECK_EQ(flat.rank(), 2u);
  DS_CHECK_EQ(mask.rank(), 2u);
  const size_t b = mask.dim(0), s = mask.dim(1), h = flat.dim(1);
  DS_CHECK_EQ(flat.dim(0), b * s);
  out->ResizeInPlace({b, h});
  for (size_t i = 0; i < b; ++i) {
    float count = 0.0f;
    float* orow = out->data() + i * h;
    for (size_t k = 0; k < h; ++k) orow[k] = 0.0f;
    for (size_t j = 0; j < s; ++j) {
      const float m = mask.at(i, j);
      if (m == 0.0f) continue;
      count += m;
      const float* frow = flat.data() + (i * s + j) * h;
      for (size_t k = 0; k < h; ++k) orow[k] += m * frow[k];
    }
    if (count > 0.0f) {
      const float inv = 1.0f / count;
      for (size_t k = 0; k < h; ++k) orow[k] *= inv;
    }
  }
}

void MaskedMean::PoolSlotsInto(const Tensor& rows,
                               const std::vector<uint32_t>& offsets,
                               const std::vector<uint32_t>& slots,
                               Tensor* out) {
  DS_CHECK_EQ(rows.rank(), 2u);
  DS_CHECK(!offsets.empty());
  DS_CHECK_EQ(offsets.back(), slots.size());
  const size_t b = offsets.size() - 1, h = rows.dim(1);
  out->ResizeInPlace({b, h});
  for (size_t i = 0; i < b; ++i) {
    float* orow = out->data() + i * h;
    for (size_t k = 0; k < h; ++k) orow[k] = 0.0f;
    for (uint32_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      DS_DCHECK(slots[e] < rows.dim(0), "pool slot %u of %zu rows", slots[e],
                rows.dim(0));
      const float* frow = rows.data() + static_cast<size_t>(slots[e]) * h;
      for (size_t k = 0; k < h; ++k) orow[k] += frow[k];
    }
    // PoolInto's count is a float sum of 1.0f mask entries: exactly n.
    const size_t n = offsets[i + 1] - offsets[i];
    if (n > 0) {
      const float inv = 1.0f / static_cast<float>(n);
      for (size_t k = 0; k < h; ++k) orow[k] *= inv;
    }
  }
}

void MaskedMean::PoolSlotsBackward(const Tensor& dy,
                                   const std::vector<uint32_t>& offsets,
                                   Tensor* drows) {
  DS_CHECK_EQ(dy.rank(), 2u);
  DS_CHECK_EQ(offsets.size(), dy.dim(0) + 1);
  const size_t b = dy.dim(0), h = dy.dim(1);
  drows->ResizeInPlace({offsets.back(), h});
  for (size_t i = 0; i < b; ++i) {
    const uint32_t begin = offsets[i], end = offsets[i + 1];
    if (begin == end) continue;
    // The pooled value is the sum times 1/n (PoolSlotsInto), so each
    // element's gradient is 1/n times the set's.
    const float inv = 1.0f / static_cast<float>(end - begin);
    const float* drow = dy.data() + i * h;
    for (uint32_t e = begin; e < end; ++e) {
      float* frow = drows->data() + static_cast<size_t>(e) * h;
      for (size_t k = 0; k < h; ++k) frow[k] = inv * drow[k];
    }
  }
}

// ---- Persistence -------------------------------------------------------------------------

void WriteParameters(const std::vector<Parameter*>& params,
                     util::BinaryWriter* writer) {
  writer->WriteU64(params.size());
  for (const Parameter* p : params) {
    writer->WriteString(p->name);
    std::vector<uint64_t> shape(p->value.shape().begin(),
                                p->value.shape().end());
    writer->WritePodVector(shape);
    writer->WritePodSpan(p->value.data(), p->value.size());
  }
}

Status ReadParameters(util::BinaryReader* reader,
                      const std::vector<Parameter*>& params) {
  uint64_t n = 0;
  DS_RETURN_NOT_OK(reader->ReadU64(&n));
  if (n != params.size()) {
    return Status::ParseError("parameter count mismatch: file has " +
                              std::to_string(n) + ", model has " +
                              std::to_string(params.size()));
  }
  for (Parameter* p : params) {
    std::string name;
    DS_RETURN_NOT_OK(reader->ReadString(&name));
    if (name != p->name) {
      return Status::ParseError("parameter name mismatch: file has '" + name +
                                "', model expects '" + p->name + "'");
    }
    std::vector<uint64_t> shape;
    DS_RETURN_NOT_OK(reader->ReadPodVector(&shape));
    std::vector<size_t> want(p->value.shape().begin(),
                             p->value.shape().end());
    if (std::vector<size_t>(shape.begin(), shape.end()) != want) {
      return Status::ParseError("parameter shape mismatch for '" + name + "'");
    }
    Status read = reader->ReadPodSpan(p->value.data(), p->value.size());
    if (!read.ok()) {
      return Status::ParseError("parameter data mismatch for '" + name +
                                "': " + read.message());
    }
  }
  return Status::OK();
}

}  // namespace ds::nn
