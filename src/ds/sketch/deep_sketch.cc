#include "ds/sketch/deep_sketch.h"

#include <algorithm>
#include <unordered_set>

#include "ds/obs/trace.h"
#include "ds/storage/table_io.h"
#include "ds/util/contract.h"
#include "ds/workload/generator.h"
#include "ds/workload/labeler.h"

namespace ds::sketch {

namespace {
constexpr uint32_t kMagic = 0x44534b54;  // "DSKT"
// v1: config + samples + feature space + normalizer + fp32 model.
// v2: v1 + quantization section (per-layer packed weights; possibly all
//     empty fp32 records). Readers accept both; v1 files load as fp32.
constexpr uint32_t kVersion = 2;
}  // namespace

Result<DeepSketch> DeepSketch::Train(const storage::Catalog& db,
                                     const SketchConfig& config,
                                     const TrainingMonitor* monitor) {
  std::vector<std::string> tables =
      config.tables.empty() ? db.table_names() : config.tables;

  // Step 1-2: materialize samples, generate uniform training queries.
  DS_ASSIGN_OR_RETURN(est::SampleSet samples,
                      est::SampleSet::Build(db, config.num_samples,
                                            config.seed, tables));
  workload::GeneratorOptions gen_opts;
  gen_opts.tables = tables;
  gen_opts.min_tables = 1;
  gen_opts.max_tables = std::min(config.max_tables_per_query, tables.size());
  gen_opts.min_predicates = config.min_predicates;
  gen_opts.max_predicates = config.max_predicates;
  gen_opts.seed = config.seed + 1;
  DS_ASSIGN_OR_RETURN(auto generator,
                      workload::QueryGenerator::Create(&db, gen_opts));
  std::vector<workload::QuerySpec> queries =
      generator.GenerateMany(config.num_training_queries);

  // Step 3: execute against the database and the samples.
  workload::LabelerOptions label_opts;
  if (monitor != nullptr && monitor->on_labeling_progress) {
    label_opts.progress = monitor->on_labeling_progress;
  }
  DS_ASSIGN_OR_RETURN(auto labeled,
                      workload::LabelQueries(db, &samples, queries,
                                             label_opts));
  return TrainOnWorkload(db, config, std::move(samples), labeled, monitor);
}

Result<DeepSketch> DeepSketch::TrainOnWorkload(
    const storage::Catalog& db, const SketchConfig& config,
    est::SampleSet samples, const std::vector<workload::LabeledQuery>& workload,
    const TrainingMonitor* monitor) {
  if (workload.empty()) {
    return Status::InvalidArgument("training workload is empty");
  }
  DeepSketch sketch;
  sketch.tables_ = config.tables.empty() ? db.table_names() : config.tables;
  sketch.use_sample_bitmaps_ = config.use_sample_bitmaps;
  sketch.num_samples_ = config.num_samples;
  sketch.samples_ = std::move(samples);

  // Key metadata for the embedded schema.
  std::unordered_set<std::string> in_subset(sketch.tables_.begin(),
                                            sketch.tables_.end());
  for (const auto& fk : db.foreign_keys()) {
    if (in_subset.count(fk.fk_table) > 0 && in_subset.count(fk.pk_table) > 0) {
      sketch.fks_.push_back(fk);
    }
  }
  for (const auto& t : sketch.tables_) {
    auto pk = db.GetPrimaryKey(t);
    if (pk.ok()) sketch.pks_.emplace_back(t, *pk);
  }

  // Step 4: featurize and train.
  DS_ASSIGN_OR_RETURN(
      sketch.space_,
      mscn::FeatureSpace::Create(db, sketch.tables_, config.num_samples));
  const std::vector<workload::LabeledQuery>* train_workload = &workload;
  std::vector<workload::LabeledQuery> stripped;
  if (!config.use_sample_bitmaps) {
    stripped = workload;
    for (auto& lq : stripped) lq.bitmaps.clear();
    train_workload = &stripped;
  }
  DS_ASSIGN_OR_RETURN(
      mscn::Dataset dataset,
      mscn::Dataset::Build(sketch.space_, sketch.samples_, *train_workload));

  mscn::ModelConfig model_config;
  model_config.table_dim = sketch.space_.table_dim();
  model_config.join_dim = sketch.space_.join_dim();
  model_config.pred_dim = sketch.space_.pred_dim();
  model_config.hidden_units = config.hidden_units;
  sketch.model_ = std::make_unique<mscn::MscnModel>(model_config);
  util::Pcg32 init_rng(config.seed + 2);
  sketch.model_->Initialize(&init_rng);

  mscn::TrainerOptions trainer_opts;
  trainer_opts.epochs = config.num_epochs;
  trainer_opts.batch_size = config.batch_size;
  trainer_opts.learning_rate = config.learning_rate;
  trainer_opts.loss = config.loss;
  trainer_opts.validation_fraction = config.validation_fraction;
  trainer_opts.seed = config.seed + 3;
  trainer_opts.threads = config.training_threads;
  if (monitor != nullptr) {
    if (monitor->on_epoch) trainer_opts.on_epoch = monitor->on_epoch;
    trainer_opts.obs_registry = monitor->obs_registry;
  }
  mscn::Trainer trainer(trainer_opts);
  DS_ASSIGN_OR_RETURN(sketch.report_,
                      trainer.Train(sketch.model_.get(), dataset,
                                    sketch.space_));
  sketch.normalizer_ = sketch.report_.normalizer;

  DS_RETURN_NOT_OK(sketch.BuildSampleCatalog());
  return sketch;
}

Status DeepSketch::BuildSampleCatalog() {
  sample_catalog_ = std::make_unique<storage::Catalog>();
  for (const auto& ts : samples_.samples()) {
    DS_ASSIGN_OR_RETURN(storage::Table * dst,
                        sample_catalog_->CreateTable(ts.table_name));
    // Clone columns sharing dictionaries with the sample tables (cheap: the
    // sample is small, and the shared dictionary keeps literal resolution
    // consistent).
    for (size_t c = 0; c < ts.rows->num_columns(); ++c) {
      const storage::Column& src = ts.rows->column(c);
      storage::Column* col;
      if (src.type() == storage::ColumnType::kCategorical) {
        DS_ASSIGN_OR_RETURN(
            col, dst->AddCategoricalColumnSharing(src.name(), src.dict()));
      } else {
        DS_ASSIGN_OR_RETURN(col, dst->AddColumn(src.name(), src.type()));
      }
      for (size_t r = 0; r < src.size(); ++r) col->AppendFrom(src, r);
    }
  }
  for (const auto& [table, column] : pks_) {
    DS_RETURN_NOT_OK(sample_catalog_->SetPrimaryKey(table, column));
  }
  for (const auto& fk : fks_) {
    DS_RETURN_NOT_OK(sample_catalog_->AddForeignKey(fk.fk_table, fk.fk_column,
                                                    fk.pk_table,
                                                    fk.pk_column));
  }
  return Status::OK();
}

Result<sql::BoundQuery> DeepSketch::BindSql(std::string_view sql) const {
  sql::BoundQuery bound;
  DS_RETURN_NOT_OK(BindSql(sql, &bound));
  return bound;
}

Status DeepSketch::BindSql(std::string_view sql, sql::BoundQuery* out) const {
  if (obs::CurrentTraceContext() == nullptr) {
    return sql::Bind(*sample_catalog_, sql, out);
  }
  // A sampled statement (the caller installed a trace context) is read
  // twice so its trace keeps the "parse" and "bind" stages apart: the
  // syntax-only pass, then the binding pass.
  {
    obs::Span span("parse");
    DS_RETURN_NOT_OK(sql::Parse(sql).status());
  }
  obs::Span span("bind");
  return sql::Bind(*sample_catalog_, sql, out);
}

Result<double> DeepSketch::EstimateSql(const std::string& sql) const {
  static thread_local sql::BoundQuery bound;  // warm binds allocate nothing
  DS_RETURN_NOT_OK(BindSql(sql, &bound));
  if (bound.placeholder.has_value()) {
    return Status::InvalidArgument(
        "query contains a '?' placeholder; use the template API");
  }
  return EstimateCardinality(bound.spec);
}

Result<double> DeepSketch::EstimateCardinality(
    const workload::QuerySpec& spec) const {
  // A one-element batch: the same sparse path and thread-local scratch as
  // every batch, so a warm single estimate allocates nothing either.
  static thread_local std::vector<Result<double>> results;
  EstimateManyInto(std::span(&spec, 1), &results);
  return results.front();
}

std::vector<Result<double>> DeepSketch::EstimateMany(
    const std::vector<workload::QuerySpec>& specs) const {
  std::vector<Result<double>> out;
  EstimateManyInto(specs, &out);
  return out;
}

namespace {

// Per-thread estimation scratch: everything EstimateManyInto needs between
// the spec list and the result vector. Every member keeps its capacity
// across batches, so once a thread has served a batch at least as large as
// the current one, estimation touches no allocator.
struct EstimateScratch {
  mscn::FeaturizeScratch featurize;
  std::vector<mscn::SparseQueryFeatures> features;  // one slot per query
  std::vector<const mscn::SparseQueryFeatures*> ptrs;
  std::vector<size_t> positions;  // result index per featurized query
  mscn::SparseBatch batch;
  nn::Workspace ws;
};

EstimateScratch& LocalEstimateScratch() {
  static thread_local EstimateScratch scratch;
  return scratch;
}

}  // namespace

void DeepSketch::EstimateManyInto(std::span<const workload::QuerySpec> specs,
                                  std::vector<Result<double>>* out) const {
  EstimateScratch& s = LocalEstimateScratch();
  out->assign(specs.size(), Result<double>(1.0));
  s.positions.clear();
  {
    obs::Span span("featurize", specs.size());
    // Each spec is featurized next to its predecessor in the batch, when
    // that one featurized: consecutive template instances share every row
    // but the placeholder's (see FeaturizeSparse).
    const workload::QuerySpec* prev = nullptr;
    for (size_t i = 0; i < specs.size(); ++i) {
      const size_t slot = s.positions.size();
      if (slot >= s.features.size()) s.features.emplace_back();
      Status st = space_.FeaturizeSparse(
          specs[i], samples_, use_sample_bitmaps_, &s.featurize,
          &s.features[slot], prev,
          prev != nullptr ? &s.features[slot - 1] : nullptr);
      if (!st.ok()) {
        if (st.code() != StatusCode::kNotFound) {
          // Bad spec: fail this slot only, the batch proceeds without it.
          (*out)[i] = st;
        }
        // kNotFound (unknown literal): keep the minimum estimate of 1.
        prev = nullptr;
        continue;
      }
      s.positions.push_back(i);
      prev = &specs[i];
    }
  }
  if (s.positions.empty()) return;
  obs::Span span("forward", s.positions.size());
  s.ptrs.clear();
  for (size_t k = 0; k < s.positions.size(); ++k) {
    s.ptrs.push_back(&s.features[k]);
  }
  mscn::PackSparseBatch(s.ptrs, space_, &s.batch);
  s.ws.Reset();
  // Steady-state inference is allocation-free: the packed batch and the
  // workspace above keep their capacity across batches, so everything from
  // the forward pass through result denormalization must stay off the
  // allocator (enforced by ds_lint statically and, when armed, by the
  // region guard at runtime — nn_kernel_test's zero-alloc assertion).
  DS_NO_ALLOC_BEGIN();
  const nn::Tensor* y = model_->InferSparse(s.batch, &s.ws);
  DS_ENSURE(y->size() >= s.positions.size(),
            "forward pass produced %zu outputs for %zu featurized queries",
            y->size(), s.positions.size());
  for (size_t k = 0; k < s.positions.size(); ++k) {
    (*out)[s.positions[k]] =
        normalizer_.Denormalize(static_cast<double>(y->at(k)));
  }
  DS_NO_ALLOC_END();
}

void DeepSketch::Write(util::BinaryWriter* w) const {
  w->WriteU32(kMagic);
  w->WriteU32(kVersion);
  w->WriteBool(use_sample_bitmaps_);
  w->WriteStringVector(tables_);
  w->WriteU64(fks_.size());
  for (const auto& fk : fks_) {
    w->WriteString(fk.fk_table);
    w->WriteString(fk.fk_column);
    w->WriteString(fk.pk_table);
    w->WriteString(fk.pk_column);
  }
  w->WriteU64(pks_.size());
  for (const auto& [t, c] : pks_) {
    w->WriteString(t);
    w->WriteString(c);
  }
  w->WriteU64(num_samples_);
  w->WriteU64(samples_.samples().size());
  for (const auto& ts : samples_.samples()) {
    w->WriteString(ts.table_name);
    w->WriteU64(ts.base_row_count);
    storage::WriteTable(*ts.rows, w);
  }
  space_.Write(w);
  normalizer_.Write(w);
  model_->Write(w);
  // v2 quantization section. The packed bytes ride along with the fp32
  // weights so a loaded sketch starts hot (no re-pack, and the pack that
  // was parity-gated is the pack that serves).
  w->WriteU8(static_cast<uint8_t>(model_->quant_mode()));
  model_->WritePacked(w);
}

Result<DeepSketch> DeepSketch::Read(util::BinaryReader* r) {
  uint32_t magic = 0, version = 0;
  DS_RETURN_NOT_OK(r->ReadU32(&magic));
  if (magic != kMagic) {
    return Status::ParseError("not a deep sketch file");
  }
  DS_RETURN_NOT_OK(r->ReadU32(&version));
  if (version < 1 || version > kVersion) {
    return Status::ParseError("unsupported sketch version " +
                              std::to_string(version));
  }
  DeepSketch sketch;
  DS_RETURN_NOT_OK(r->ReadBool(&sketch.use_sample_bitmaps_));
  DS_RETURN_NOT_OK(r->ReadStringVector(&sketch.tables_));
  uint64_t n = 0;
  DS_RETURN_NOT_OK(r->ReadU64(&n));
  // Counts come from the file: prove each plausible (every element needs at
  // least its length prefixes' worth of input) before sizing containers, so
  // a corrupt count fails as a Status instead of a giant allocation.
  DS_RETURN_NOT_OK(r->CheckCount(n, 4 * sizeof(uint64_t)));
  sketch.fks_.resize(n);
  for (auto& fk : sketch.fks_) {
    DS_RETURN_NOT_OK(r->ReadString(&fk.fk_table));
    DS_RETURN_NOT_OK(r->ReadString(&fk.fk_column));
    DS_RETURN_NOT_OK(r->ReadString(&fk.pk_table));
    DS_RETURN_NOT_OK(r->ReadString(&fk.pk_column));
  }
  DS_RETURN_NOT_OK(r->ReadU64(&n));
  DS_RETURN_NOT_OK(r->CheckCount(n, 2 * sizeof(uint64_t)));
  sketch.pks_.resize(n);
  for (auto& [t, c] : sketch.pks_) {
    DS_RETURN_NOT_OK(r->ReadString(&t));
    DS_RETURN_NOT_OK(r->ReadString(&c));
  }
  uint64_t num_samples = 0;
  DS_RETURN_NOT_OK(r->ReadU64(&num_samples));
  sketch.num_samples_ = num_samples;
  DS_RETURN_NOT_OK(r->ReadU64(&n));
  DS_RETURN_NOT_OK(r->CheckCount(n, 2 * sizeof(uint64_t)));
  std::vector<est::TableSample> samples;
  samples.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    est::TableSample ts;
    DS_RETURN_NOT_OK(r->ReadString(&ts.table_name));
    DS_RETURN_NOT_OK(r->ReadU64(&ts.base_row_count));
    DS_ASSIGN_OR_RETURN(ts.rows, storage::ReadTable(r));
    samples.push_back(std::move(ts));
  }
  sketch.samples_ = est::SampleSet::FromSamples(std::move(samples),
                                                num_samples);
  DS_ASSIGN_OR_RETURN(sketch.space_, mscn::FeatureSpace::Read(r));
  DS_ASSIGN_OR_RETURN(sketch.normalizer_, nn::LogNormalizer::Read(r));
  DS_ASSIGN_OR_RETURN(mscn::MscnModel model, mscn::MscnModel::Read(r));
  // Cross-section consistency: the model's input widths are derived from
  // the feature space at train time, and inference feeds featurized rows
  // straight into the set MLPs. A corrupted file can pass both sections'
  // individual checks yet disagree here, which would only surface as a
  // shape-contract abort deep inside the first forward pass.
  const mscn::ModelConfig& mc = model.config();
  if (mc.table_dim != sketch.space_.table_dim() ||
      mc.join_dim != sketch.space_.join_dim() ||
      mc.pred_dim != sketch.space_.pred_dim()) {
    return Status::ParseError(
        "sketch model dims [" + std::to_string(mc.table_dim) + "," +
        std::to_string(mc.join_dim) + "," + std::to_string(mc.pred_dim) +
        "] disagree with its feature space [" +
        std::to_string(sketch.space_.table_dim()) + "," +
        std::to_string(sketch.space_.join_dim()) + "," +
        std::to_string(sketch.space_.pred_dim()) + "]");
  }
  sketch.model_ = std::make_unique<mscn::MscnModel>(std::move(model));
  if (version >= 2) {
    uint8_t mode = 0;
    DS_RETURN_NOT_OK(r->ReadU8(&mode));
    if (mode > static_cast<uint8_t>(nn::QuantMode::kInt8)) {
      return Status::ParseError("invalid sketch quant mode " +
                                std::to_string(mode));
    }
    DS_RETURN_NOT_OK(sketch.model_->ReadPacked(r));
    if (sketch.model_->quant_mode() != static_cast<nn::QuantMode>(mode)) {
      return Status::ParseError("sketch quant header says " +
                                std::string(nn::QuantModeName(
                                    static_cast<nn::QuantMode>(mode))) +
                                " but packed layers are " +
                                nn::QuantModeName(sketch.model_->quant_mode()));
    }
  }
  DS_RETURN_NOT_OK(sketch.BuildSampleCatalog());
  return sketch;
}

Status DeepSketch::Save(const std::string& path) const {
  util::BinaryWriter w;
  Write(&w);
  return w.WriteToFile(path);
}

Result<DeepSketch> DeepSketch::Load(const std::string& path) {
  DS_ASSIGN_OR_RETURN(auto reader, util::BinaryReader::FromFile(path));
  return Read(&reader);
}

size_t DeepSketch::SerializedSize() const {
  util::BinaryWriter w;
  Write(&w);
  return w.size();
}

}  // namespace ds::sketch
