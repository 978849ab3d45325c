// The traced run's layer replay: the same statements, one at a time,
// through each layer's public entry point, timed from outside the program.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "common.h"
#include "load.h"
#include "setup.h"

namespace perfbench {

struct ReplayInputs {
  const ds::sketch::DeepSketch* sketch = nullptr;
  Stack* stack = nullptr;  // must run a NetServer
  Protocol protocol = Protocol::kBinary;
  std::vector<std::string> sqls;       // placeholder-free statements
  std::vector<std::string> templates;  // '?' templates (expansion timing)
  double served_batch = 1;             // mean batch the server formed
};

/// Replays every statement once through, in this order:
///   the wire (one request at depth 1)          -> net.rtt_us
///   SketchServer::Submit to resolved future     -> serve.rtt_us
///   sql::Parse, sql::Bind, FeaturizeSparse,
///   EstimateManyInto (batch 1), EstimateSql     -> sql.*, mscn.*, nn.*,
///                                                  sketch.*
/// The wire and Submit passes use sketch names of their own, so each
/// statement misses the server's statement and result caches exactly once
/// in each. Records one "statement" root span per statement with a child
/// per call, and appends the per-layer metrics (medians) to `out`.
ds::Status RunLayerReplay(const ReplayInputs& in, SpanLog* spans,
                          std::vector<Metric>* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
