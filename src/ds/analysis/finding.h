// The finding record ds_lint reports (stderr and SARIF).

#ifndef DS_ANALYSIS_FINDING_H_
#define DS_ANALYSIS_FINDING_H_

#include <cstddef>
#include <string>

namespace ds::analysis {

struct Finding {
  std::string file;
  size_t line = 0;
  std::string rule;
  std::string message;
};

}  // namespace ds::analysis

#endif  // DS_ANALYSIS_FINDING_H_
