#include "ds/mscn/model.h"

namespace ds::mscn {

void ModelConfig::Write(util::BinaryWriter* w) const {
  w->WriteU64(table_dim);
  w->WriteU64(join_dim);
  w->WriteU64(pred_dim);
  w->WriteU64(hidden_units);
}

Result<ModelConfig> ModelConfig::Read(util::BinaryReader* r) {
  ModelConfig c;
  uint64_t v = 0;
  DS_RETURN_NOT_OK(r->ReadU64(&v));
  c.table_dim = v;
  DS_RETURN_NOT_OK(r->ReadU64(&v));
  c.join_dim = v;
  DS_RETURN_NOT_OK(r->ReadU64(&v));
  c.pred_dim = v;
  DS_RETURN_NOT_OK(r->ReadU64(&v));
  c.hidden_units = v;
  if (c.table_dim == 0 || c.join_dim == 0 || c.pred_dim == 0 ||
      c.hidden_units == 0) {
    return Status::ParseError("invalid model config");
  }
  // Plausibility caps: MscnModel's constructor sizes its weight tensors
  // straight from these dims, so a bit-flipped file must fail here as a
  // ParseError rather than as a multi-GiB allocation (or bad_alloc abort)
  // inside the constructor. Real sketches are orders of magnitude smaller
  // (dims in the tens to hundreds, hidden units <= a few hundred).
  constexpr uint64_t kMaxDim = uint64_t{1} << 20;
  constexpr uint64_t kMaxWeightCells = uint64_t{1} << 26;
  const uint64_t dims[] = {c.table_dim, c.join_dim, c.pred_dim};
  for (uint64_t d : dims) {
    if (d > kMaxDim || c.hidden_units > kMaxDim ||
        d * c.hidden_units > kMaxWeightCells ||
        c.hidden_units * c.hidden_units > kMaxWeightCells) {
      return Status::ParseError("implausible model dimensions in sketch file");
    }
  }
  return c;
}

MscnModel::MscnModel(const ModelConfig& config)
    : config_(config),
      table_mlp_("table", {config.table_dim, config.hidden_units,
                           config.hidden_units},
                 /*final_activation=*/true),
      join_mlp_("join",
                {config.join_dim, config.hidden_units, config.hidden_units},
                /*final_activation=*/true),
      pred_mlp_("pred",
                {config.pred_dim, config.hidden_units, config.hidden_units},
                /*final_activation=*/true),
      out_mlp_("out", {3 * config.hidden_units, config.hidden_units, 1},
               /*final_activation=*/false) {
  DS_CHECK_GT(config.table_dim, 0u);
  DS_CHECK_GT(config.join_dim, 0u);
  DS_CHECK_GT(config.pred_dim, 0u);
  DS_CHECK_GT(config.hidden_units, 0u);
}

void MscnModel::Initialize(util::Pcg32* rng) {
  table_mlp_.Initialize(rng);
  join_mlp_.Initialize(rng);
  pred_mlp_.Initialize(rng);
  out_mlp_.Initialize(rng);
}

namespace {

// Writes the three pooled set representations [B, H] side by side into
// `concat` [B, 3H].
void Concatenate(const nn::Tensor& t, const nn::Tensor& j, const nn::Tensor& p,
                 nn::Tensor* concat) {
  const size_t b = t.dim(0), h = t.dim(1);
  concat->ResizeInPlace({b, 3 * h});
  for (size_t i = 0; i < b; ++i) {
    float* row = concat->data() + i * 3 * h;
    std::copy(t.data() + i * h, t.data() + (i + 1) * h, row);
    std::copy(j.data() + i * h, j.data() + (i + 1) * h, row + h);
    std::copy(p.data() + i * h, p.data() + (i + 1) * h, row + 2 * h);
  }
}

}  // namespace

const nn::Tensor& MscnModel::Forward(const SparseBatch& batch) {
  // Per-element shared MLPs on each set's rows, then the per-query mean.
  batch_ = &batch;
  nn::Mlp* mlps[3] = {&table_mlp_, &join_mlp_, &pred_mlp_};
  const SparseSet* sets[3] = {&batch.tables, &batch.joins, &batch.predicates};
  for (size_t s = 0; s < 3; ++s) {
    nn::MaskedMean::PoolSlotsInto(mlps[s]->Forward(sets[s]->rows),
                                  sets[s]->offsets, sets[s]->slots,
                                  &pooled_[s]);
  }
  Concatenate(pooled_[0], pooled_[1], pooled_[2], &concat_);
  nn::Tensor& y = out_mlp_.Forward(concat_);
  out_sigmoid_.Forward(&y);
  return y;
}

const nn::Tensor* MscnModel::InferTail(const nn::Tensor& t,
                                       const nn::Tensor& j,
                                       const nn::Tensor& p,
                                       nn::Workspace* ws) const {
  nn::Tensor* concat = ws->Acquire();
  Concatenate(t, j, p, concat);
  nn::Tensor* y = out_mlp_.InferInto(*concat, ws);
  nn::Sigmoid::ApplyInPlace(y);
  return y;
}

const nn::Tensor* MscnModel::InferInto(const Batch& batch,
                                       nn::Workspace* ws) const {
  const nn::Tensor* tf = table_mlp_.InferInto(batch.tables, ws);
  const nn::Tensor* jf = join_mlp_.InferInto(batch.joins, ws);
  const nn::Tensor* pf = pred_mlp_.InferInto(batch.predicates, ws);
  nn::Tensor* t = ws->Acquire();
  nn::Tensor* j = ws->Acquire();
  nn::Tensor* p = ws->Acquire();
  nn::MaskedMean::PoolInto(*tf, batch.table_mask, t);
  nn::MaskedMean::PoolInto(*jf, batch.join_mask, j);
  nn::MaskedMean::PoolInto(*pf, batch.predicate_mask, p);
  return InferTail(*t, *j, *p, ws);
}

namespace {

// One set's pooled representation [B, H]: the set-MLP over the packed rows,
// then the mean over each query's slots.
nn::Tensor* PoolSparseSet(const nn::Mlp& mlp, const SparseSet& set,
                          nn::Workspace* ws) {
  const nn::Tensor* rows = mlp.InferSparseInto(set.rows, ws);
  nn::Tensor* pooled = ws->Acquire();
  nn::MaskedMean::PoolSlotsInto(*rows, set.offsets, set.slots, pooled);
  return pooled;
}

}  // namespace

const nn::Tensor* MscnModel::InferSparse(const SparseBatch& batch,
                                         nn::Workspace* ws) const {
  const nn::Tensor* t = PoolSparseSet(table_mlp_, batch.tables, ws);
  const nn::Tensor* j = PoolSparseSet(join_mlp_, batch.joins, ws);
  const nn::Tensor* p = PoolSparseSet(pred_mlp_, batch.predicates, ws);
  return InferTail(*t, *j, *p, ws);
}

void MscnModel::Backward(nn::Tensor* dy) {
  DS_CHECK(batch_ != nullptr);
  const size_t h = config_.hidden_units;
  out_sigmoid_.Backward(dy);
  const nn::Tensor& dconcat = *out_mlp_.Backward(dy);
  const size_t b = dconcat.dim(0);
  nn::Mlp* mlps[3] = {&table_mlp_, &join_mlp_, &pred_mlp_};
  const SparseSet* sets[3] = {&batch_->tables, &batch_->joins,
                              &batch_->predicates};
  for (size_t s = 0; s < 3; ++s) {
    dpooled_[s].ResizeInPlace({b, h});
    for (size_t i = 0; i < b; ++i) {
      const float* row = dconcat.data() + i * 3 * h + s * h;
      std::copy(row, row + h, dpooled_[s].data() + i * h);
    }
    nn::MaskedMean::PoolSlotsBackward(dpooled_[s], sets[s]->offsets,
                                      &delements_[s]);
    mlps[s]->Backward(&delements_[s]);
  }
}

void MscnModel::ReleaseTrainingState() {
  for (nn::Mlp* mlp : {&table_mlp_, &join_mlp_, &pred_mlp_, &out_mlp_}) {
    mlp->ReleaseTrainingState();
  }
  batch_ = nullptr;
  for (size_t s = 0; s < 3; ++s) {
    pooled_[s] = nn::Tensor();
    dpooled_[s] = nn::Tensor();
    delements_[s] = nn::Tensor();
  }
  concat_ = nn::Tensor();
}

std::vector<nn::Parameter*> MscnModel::Parameters() {
  std::vector<nn::Parameter*> out;
  for (nn::Mlp* mlp : {&table_mlp_, &join_mlp_, &pred_mlp_, &out_mlp_}) {
    for (nn::Parameter* p : mlp->Parameters()) out.push_back(p);
  }
  return out;
}

size_t MscnModel::NumParameters() const {
  size_t n = 0;
  for (const nn::Mlp* mlp : {&table_mlp_, &join_mlp_, &pred_mlp_, &out_mlp_}) {
    for (nn::Parameter* p : const_cast<nn::Mlp*>(mlp)->Parameters()) {
      n += p->value.size();
    }
  }
  return n;
}

void MscnModel::Pack(nn::QuantMode mode) {
  table_mlp_.Pack(mode);
  join_mlp_.Pack(mode);
  pred_mlp_.Pack(mode);
  out_mlp_.Pack(mode);
}

void MscnModel::WritePacked(util::BinaryWriter* w) const {
  table_mlp_.WritePacked(w);
  join_mlp_.WritePacked(w);
  pred_mlp_.WritePacked(w);
  out_mlp_.WritePacked(w);
}

Status MscnModel::ReadPacked(util::BinaryReader* r) {
  DS_RETURN_NOT_OK(table_mlp_.ReadPacked(r));
  DS_RETURN_NOT_OK(join_mlp_.ReadPacked(r));
  DS_RETURN_NOT_OK(pred_mlp_.ReadPacked(r));
  DS_RETURN_NOT_OK(out_mlp_.ReadPacked(r));
  return Status::OK();
}

void MscnModel::Write(util::BinaryWriter* w) {
  config_.Write(w);
  nn::WriteParameters(Parameters(), w);
}

Result<MscnModel> MscnModel::Read(util::BinaryReader* r) {
  DS_ASSIGN_OR_RETURN(ModelConfig config, ModelConfig::Read(r));
  MscnModel model(config);
  DS_RETURN_NOT_OK(nn::ReadParameters(r, model.Parameters()));
  return model;
}

}  // namespace ds::mscn
