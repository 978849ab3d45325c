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

Tensor Linear::Forward(const Tensor& x) {
  DS_CHECK_EQ(x.rank(), 2u);
  cached_x_ = x;
  Tensor y;
  LinearBiasActInto(x, weight_.value, bias_.value, /*fuse_relu=*/false, &y);
  return y;
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

Tensor Linear::Backward(const Tensor& dy) {
  DS_CHECK(!cached_x_.empty());
  // dW += x^T dy ; db += column sums of dy ; dx = dy W^T.
  MatMulTransposedAAccumulate(cached_x_, dy, &weight_.grad);
  SumRowsInto(dy, &bias_.grad);
  Tensor dx;
  MatMulTransposedBInto(dy, weight_.value, &dx);
  return dx;
}

// ---- Activations ------------------------------------------------------------------

Tensor ReLU::Forward(Tensor x) {
  // In place; the output doubles as the backward cache (y == 0 iff x <= 0,
  // so the gradient mask is recoverable from y alone).
  for (float& v : x.vec()) v = v > 0.0f ? v : 0.0f;
  cached_y_ = x;
  return x;
}

Tensor ReLU::Backward(const Tensor& dy) {
  DS_CHECK(dy.SameShape(cached_y_));
  Tensor dx = dy;
  const float* y = cached_y_.data();
  float* d = dx.data();
  for (size_t i = 0; i < dx.size(); ++i) {
    if (y[i] == 0.0f) d[i] = 0.0f;
  }
  return dx;
}

void ReLU::ApplyInPlace(Tensor* x) {
  for (float& v : x->vec()) v = v > 0.0f ? v : 0.0f;
}

Tensor Sigmoid::Forward(Tensor x) {
  for (float& v : x.vec()) v = 1.0f / (1.0f + std::exp(-v));
  cached_y_ = x;
  return x;
}

Tensor Sigmoid::Backward(const Tensor& dy) {
  DS_CHECK(dy.SameShape(cached_y_));
  Tensor dx = dy;
  const float* y = cached_y_.data();
  float* d = dx.data();
  for (size_t i = 0; i < dx.size(); ++i) d[i] *= y[i] * (1.0f - y[i]);
  return dx;
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

Tensor Mlp::Forward(const Tensor& x) {
  // Feed `x` straight into the first layer (it caches its own input copy);
  // the old `Tensor h = x;` head copy was pure overhead.
  Tensor h = layers_[0].Forward(x);
  if (!relus_.empty()) h = relus_[0].Forward(std::move(h));
  for (size_t i = 1; i < layers_.size(); ++i) {
    h = layers_[i].Forward(h);
    if (i < relus_.size()) h = relus_[i].Forward(std::move(h));
  }
  return h;
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

Tensor Mlp::Backward(const Tensor& dy) {
  Tensor d = dy;
  for (size_t i = layers_.size(); i-- > 0;) {
    if (i < relus_.size()) d = relus_[i].Backward(d);
    d = layers_[i].Backward(d);
  }
  return d;
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
  cached_mask_ = mask;
  cached_h_ = h;
  cached_counts_.assign(b, 0.0f);
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
    cached_counts_[i] = count;
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

Tensor MaskedMean::Backward(const Tensor& dy) {
  const size_t b = cached_mask_.dim(0), s = cached_mask_.dim(1);
  const size_t h = cached_h_;
  DS_CHECK_EQ(dy.dim(0), b);
  DS_CHECK_EQ(dy.dim(1), h);
  Tensor dflat({b * s, h});
  for (size_t i = 0; i < b; ++i) {
    const float count = cached_counts_[i];
    if (count == 0.0f) continue;
    const float inv = 1.0f / count;
    const float* drow = dy.data() + i * h;
    for (size_t j = 0; j < s; ++j) {
      const float m = cached_mask_.at(i, j);
      if (m == 0.0f) continue;
      float* frow = dflat.data() + (i * s + j) * h;
      const float scale = m * inv;
      for (size_t k = 0; k < h; ++k) frow[k] = scale * drow[k];
    }
  }
  return dflat;
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
