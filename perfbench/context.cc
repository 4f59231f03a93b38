#include "context.h"

#include <cstring>
#include <string>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "base/parallel.h"
#include "tensor/simd.h"

#ifndef GELC_PERFBENCH_BUILD_TYPE
#define GELC_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace gelc {
namespace perfbench {
namespace {

std::string& GitSha() {
  static std::string sha = "unknown";
  return sha;
}

// The CPU brand string from cpuid leaves 0x80000002..4; no file reads.
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const size_t first = s.find_first_not_of(' ');
  const size_t last = s.find_last_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

void SetGitSha(std::string sha) { GitSha() = std::move(sha); }

std::string ContextJson(size_t nproc) {
  return "{\"git_sha\": " + Quoted(GitSha()) +
         ", \"nproc\": " + std::to_string(nproc) +
         ", \"cpu_model\": " + Quoted(CpuModel()) +
         ", \"compiler\": " + Quoted(kCompiler) +
         ", \"build_type\": " + Quoted(GELC_PERFBENCH_BUILD_TYPE) +
         ", \"simd_tier\": " + Quoted(simd::TierName(simd::ActiveTier())) +
         ", \"pool_threads\": " + std::to_string(ParallelThreadCount()) + "}";
}

}  // namespace perfbench
}  // namespace gelc
