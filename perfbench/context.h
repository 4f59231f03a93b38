// Run context recorded in every result: where and how the numbers were
// measured (machine, compiler, build, SIMD tier, pool size, source sha).
#ifndef GELC_PERFBENCH_CONTEXT_H_
#define GELC_PERFBENCH_CONTEXT_H_

#include <cstddef>
#include <string>

namespace gelc {
namespace perfbench {

/// The source revision, as passed in by the launcher (`--git-sha`).
void SetGitSha(std::string sha);

/// The context as a JSON object.
std::string ContextJson(size_t nproc);

}  // namespace perfbench
}  // namespace gelc

#endif  // GELC_PERFBENCH_CONTEXT_H_
