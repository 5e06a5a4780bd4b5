#include "strategies/strategies.h"

#include <atomic>
#include <cstdlib>

#include "strategies/tier_tables.h"

namespace utcq::strategies {
namespace {

// Runtime CPUID checks, gated so non-x86 builds fall through to scalar.
// The compiled-in check (table != nullptr) is separate: a build whose
// toolchain lacked the ISA flags reports the tier unsupported even on
// capable hardware.

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  // LZCNT (ABM) has shipped on every AVX2+BMI part ever made, and the
  // kernels guard the clz-of-zero case anyway, so it isn't probed.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi") &&
         __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("popcnt");
#else
  return false;
#endif
}

std::atomic<const Kernels*> g_active{nullptr};

const Kernels* ResolveStartupTier() {
  Tier tier = BestSupportedTier();
  // getenv is only mt-unsafe against a concurrent setenv; nothing in this
  // process mutates the environment, and this runs once at first decode.
  if (const char* env = std::getenv("UTCQ_STRATEGY")) {  // NOLINT(concurrency-mt-unsafe)
    Tier forced;
    if (ParseTier(env, &forced) && TierSupported(forced)) tier = forced;
  }
  return KernelsFor(tier);
}

}  // namespace

bool TierSupported(Tier tier) {
  switch (tier) {
    case Tier::kBitloop:
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
      return detail::Avx2Kernels() != nullptr && CpuHasAvx2();
  }
  return false;
}

Tier BestSupportedTier() {
  return TierSupported(Tier::kAvx2) ? Tier::kAvx2 : Tier::kScalar;
}

const Kernels* KernelsFor(Tier tier) {
  if (!TierSupported(tier)) return nullptr;
  switch (tier) {
    case Tier::kBitloop:
      return detail::BitloopKernels();
    case Tier::kScalar:
      return detail::ScalarKernels();
    case Tier::kAvx2:
      return detail::Avx2Kernels();
  }
  return nullptr;
}

const Kernels& Active() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    // Install-if-still-null: racing first callers may each resolve the
    // startup tier (idempotent — CPUID + env are stable), and a CAS loser
    // adopts whatever won, including a concurrent SetActive. Never
    // overwriting a non-null value is what makes SetActive safe to call
    // without forcing resolution first, and it keeps this TU free of
    // locks (no std::mutex outside common/ — scripts/repo_lint.py).
    const Kernels* resolved = ResolveStartupTier();
    const Kernels* expected = nullptr;
    if (g_active.compare_exchange_strong(expected, resolved,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      k = resolved;
    } else {
      k = expected;
    }
  }
  return *k;
}

bool SetActive(Tier tier) {
  const Kernels* k = KernelsFor(tier);
  if (k == nullptr) return false;
  g_active.store(k, std::memory_order_release);
  return true;
}

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kBitloop:
      return "bitloop";
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool ParseTier(std::string_view name, Tier* out) {
  if (name == "bitloop") {
    *out = Tier::kBitloop;
  } else if (name == "scalar") {
    *out = Tier::kScalar;
  } else if (name == "avx2") {
    *out = Tier::kAvx2;
  } else {
    return false;
  }
  return true;
}

}  // namespace utcq::strategies
