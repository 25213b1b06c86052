// The rule implementations behind tools/lintlib/engine.h's registry. Each is
// a pure function from the parsed project to raw findings; suppression and
// baseline handling live in the engine, never in a rule.

#ifndef VSCALE_TOOLS_LINTLIB_RULES_H_
#define VSCALE_TOOLS_LINTLIB_RULES_H_

#include <vector>

#include "tools/lintlib/engine.h"

namespace vslint {
namespace rules {

// determinism family
void UnorderedContainer(const Project&, std::vector<Finding>*);
void RawRand(const Project&, std::vector<Finding>*);
void WallClock(const Project&, std::vector<Finding>*);
void PointerKey(const Project&, std::vector<Finding>*);
void FloatAccum(const Project&, std::vector<Finding>*);

// observability family
void MetricDocs(const Project&, std::vector<Finding>*);
void TraceDocs(const Project&, std::vector<Finding>*);
void CovDocs(const Project&, std::vector<Finding>*);
void ObserverGlobal(const Project&, std::vector<Finding>*);

// validate family
void ValidateBeforeUse(const Project&, std::vector<Finding>*);

}  // namespace rules
}  // namespace vslint

#endif  // VSCALE_TOOLS_LINTLIB_RULES_H_
