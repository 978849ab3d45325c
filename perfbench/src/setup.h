// Set-up of the system under test: the sketch (Figure 1a's pipeline, timed
// stage by stage) and the serving stack it is published into.

#ifndef PERFBENCH_SETUP_H_
#define PERFBENCH_SETUP_H_

#include <memory>
#include <string>
#include <vector>

#include "ds/net/server.h"
#include "ds/serve/registry.h"
#include "ds/serve/server.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/storage/catalog.h"

namespace perfbench {

/// Size of the sketch under test. Fixed by the benchmark (not derived from
/// the workload seed), so every workload and seed measures the same model.
struct SketchParams {
  size_t titles = 6000;
  size_t samples = 256;
  size_t training_queries = 2000;
  size_t epochs = 10;
  size_t hidden = 64;
  uint64_t seed = 42;
};

/// The tables the sketch covers and the workloads query.
const std::vector<std::string>& SketchTables();

/// Seconds spent in each set-up stage.
struct SetupTimes {
  double datagen_s = 0;  // datagen::GenerateImdb
  double sample_s = 0;   // est::SampleSet::Build
  double label_s = 0;    // query generation + workload::LabelQueries
  double train_s = 0;    // DeepSketch::TrainOnWorkload
  double publish_s = 0;  // Save, load, server start

  double Total() const {
    return datagen_s + sample_s + label_s + train_s + publish_s;
  }
};

struct Trained {
  std::unique_ptr<ds::storage::Catalog> db;
  std::unique_ptr<ds::sketch::DeepSketch> sketch;
};

/// Generates the database, samples it, labels training queries with
/// ds::exec and trains the sketch, timing each stage into `times`.
ds::Result<Trained> TrainSketch(const SketchParams& params, SetupTimes* times);

/// ds_served's serving defaults: 2 workers (one queue shard each),
/// max_batch 32, 200 us linger, queue 4096, 1-in-64 trace sampling, no
/// pinning.
ds::serve::ServerOptions ServedDefaults();

/// Event loops of the benchmark's NetServer (ds_served's default is one
/// per physical core; the benchmark fixes it so client and server threads
/// together stay near nproc).
inline constexpr size_t kNetLoops = 1;

/// The serving stack under test: a SketchRegistry loading from disk, a
/// SketchServer with ServedDefaults(), and optionally a NetServer on an
/// ephemeral loopback port. Members are destroyed in reverse order, so the
/// front-end drains before the server and the server before the registry.
class Stack {
 public:
  /// Saves `sketch` as <dir>/<name>.sketch, loads it through the registry's
  /// disk path and starts the servers.
  static ds::Result<std::unique_ptr<Stack>> Start(
      const ds::sketch::DeepSketch& sketch, const std::string& dir,
      const std::string& name, bool with_net);

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Save + registry load under `name` (a separate cache namespace: the
  /// server's caches key on the sketch name).
  ds::Status Publish(const ds::sketch::DeepSketch& sketch,
                     const std::string& name);

  /// The dashboard's republish: Save, Invalidate (bumps the epoch, which
  /// retires every cached entry), then reload from disk.
  ds::Status Republish(const ds::sketch::DeepSketch& sketch,
                       const std::string& name);

  ds::serve::SketchRegistry& registry() { return *registry_; }
  ds::serve::SketchServer& server() { return *server_; }
  uint16_t port() const { return net_ == nullptr ? 0 : net_->port(); }

 private:
  Stack() = default;

  std::unique_ptr<ds::serve::SketchRegistry> registry_;
  std::unique_ptr<ds::serve::SketchServer> server_;
  std::unique_ptr<ds::net::NetServer> net_;
};

/// The system under test after one set-up: the trained sketch and either
/// the serving stack it is published into (wire workloads) or the sketch
/// loaded back from its file (embedded use).
struct SystemUnderTest {
  Trained trained;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<ds::sketch::DeepSketch> embedded;
};

/// One full set-up, timed stage by stage into `times`: TrainSketch, then
/// publish into `dir` (wire: Stack::Start; embedded: Save and Load, as an
/// application shipping the file would).
ds::Result<SystemUnderTest> SetUp(const SketchParams& params, bool wire,
                                  const std::string& dir, SetupTimes* times);

}  // namespace perfbench

#endif  // PERFBENCH_SETUP_H_
