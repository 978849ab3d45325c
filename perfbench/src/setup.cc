#include "setup.h"

#include <algorithm>

#include "common.h"
#include "ds/datagen/imdb.h"
#include "ds/est/sample.h"
#include "ds/workload/generator.h"
#include "ds/workload/labeler.h"

namespace perfbench {

using namespace ds;

const std::vector<std::string>& SketchTables() {
  static const std::vector<std::string> tables = {"title", "movie_keyword",
                                                  "keyword"};
  return tables;
}

Result<Trained> TrainSketch(const SketchParams& params, SetupTimes* times) {
  Trained out;
  int64_t t0 = NowNs();
  datagen::ImdbOptions imdb;
  imdb.num_titles = params.titles;
  imdb.seed = params.seed;
  DS_ASSIGN_OR_RETURN(out.db, datagen::GenerateImdb(imdb));
  times->datagen_s = SecondsSince(t0);

  sketch::SketchConfig config;
  config.tables = SketchTables();
  config.num_samples = params.samples;
  config.num_training_queries = params.training_queries;
  config.num_epochs = params.epochs;
  config.hidden_units = params.hidden;
  config.seed = params.seed;

  // The same pipeline DeepSketch::Train runs, split so each stage is timed.
  t0 = NowNs();
  DS_ASSIGN_OR_RETURN(est::SampleSet samples,
                      est::SampleSet::Build(*out.db, config.num_samples,
                                            config.seed, config.tables));
  times->sample_s = SecondsSince(t0);

  t0 = NowNs();
  workload::GeneratorOptions gen;
  gen.tables = config.tables;
  gen.min_tables = 1;
  gen.max_tables = std::min(config.max_tables_per_query, config.tables.size());
  gen.min_predicates = config.min_predicates;
  gen.max_predicates = config.max_predicates;
  gen.seed = config.seed + 1;
  DS_ASSIGN_OR_RETURN(auto generator,
                      workload::QueryGenerator::Create(out.db.get(), gen));
  const std::vector<workload::QuerySpec> queries =
      generator.GenerateMany(config.num_training_queries);
  DS_ASSIGN_OR_RETURN(auto labeled,
                      workload::LabelQueries(*out.db, &samples, queries));
  times->label_s = SecondsSince(t0);

  t0 = NowNs();
  DS_ASSIGN_OR_RETURN(sketch::DeepSketch trained,
                      sketch::DeepSketch::TrainOnWorkload(
                          *out.db, config, std::move(samples), labeled));
  out.sketch = std::make_unique<sketch::DeepSketch>(std::move(trained));
  times->train_s = SecondsSince(t0);
  return out;
}

serve::ServerOptions ServedDefaults() {
  serve::ServerOptions options;
  options.num_workers = 2;
  options.num_queue_shards = options.num_workers;
  options.max_batch = 32;
  options.max_wait_us = 200;
  options.queue_capacity = 4096;
  options.trace_sample_every = 64;
  options.pin_workers = false;
  return options;
}

Result<std::unique_ptr<Stack>> Stack::Start(const sketch::DeepSketch& sketch,
                                            const std::string& dir,
                                            const std::string& name,
                                            bool with_net) {
  std::unique_ptr<Stack> stack(new Stack());
  serve::RegistryOptions registry_options;
  registry_options.directory = dir;
  stack->registry_ = std::make_unique<serve::SketchRegistry>(registry_options);
  DS_RETURN_NOT_OK(stack->Publish(sketch, name));
  stack->server_ = std::make_unique<serve::SketchServer>(stack->registry_.get(),
                                                         ServedDefaults());
  if (with_net) {
    net::NetServerOptions net_options;
    net_options.num_workers = kNetLoops;
    net_options.pin_threads = false;
    stack->net_ = std::make_unique<net::NetServer>(stack->server_.get(),
                                                   net_options);
    DS_RETURN_NOT_OK(stack->net_->Start());
  }
  return stack;
}

Status Stack::Publish(const sketch::DeepSketch& sketch,
                      const std::string& name) {
  DS_RETURN_NOT_OK(sketch.Save(registry_->PathFor(name)));
  auto loaded = registry_->Get(name);
  return loaded.ok() ? Status::OK() : loaded.status();
}

Status Stack::Republish(const sketch::DeepSketch& sketch,
                        const std::string& name) {
  DS_RETURN_NOT_OK(sketch.Save(registry_->PathFor(name)));
  registry_->Invalidate(name);
  auto loaded = registry_->Get(name);
  return loaded.ok() ? Status::OK() : loaded.status();
}

Result<SystemUnderTest> SetUp(const SketchParams& params, bool wire,
                              const std::string& dir, SetupTimes* times) {
  SystemUnderTest out;
  DS_ASSIGN_OR_RETURN(out.trained, TrainSketch(params, times));
  const int64_t t0 = NowNs();
  if (wire) {
    DS_ASSIGN_OR_RETURN(out.stack,
                        Stack::Start(*out.trained.sketch, dir, "bench", true));
  } else {
    const std::string path = dir + "/bench.sketch";
    DS_RETURN_NOT_OK(out.trained.sketch->Save(path));
    DS_ASSIGN_OR_RETURN(sketch::DeepSketch loaded,
                        sketch::DeepSketch::Load(path));
    out.embedded = std::make_unique<sketch::DeepSketch>(std::move(loaded));
  }
  times->publish_s = SecondsSince(t0);
  return out;
}

}  // namespace perfbench
