// SARIF 2.1.0 emission for ds_lint, so findings land in code
// scanning UIs (GitHub uploads, VS Code SARIF viewers) instead of only on
// stderr. One run, one tool, results ordered as given.

#ifndef DS_ANALYSIS_SARIF_H_
#define DS_ANALYSIS_SARIF_H_

#include <string>
#include <vector>

#include "ds/analysis/finding.h"

namespace ds::analysis {

/// Serializes `findings` as a SARIF 2.1.0 log under `tool_name`; each
/// distinct rule id gets a rules entry. Every result is level "error" —
/// ds_lint treats any finding as failing.
std::string ToSarif(const std::string& tool_name,
                    const std::string& tool_version,
                    const std::vector<Finding>& findings);

/// Writes `content` to `path`. Returns false (with a stderr note) on error.
bool WriteTextFile(const std::string& path, const std::string& content);

}  // namespace ds::analysis

#endif  // DS_ANALYSIS_SARIF_H_
