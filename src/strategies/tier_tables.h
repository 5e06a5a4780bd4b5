#ifndef UTCQ_STRATEGIES_TIER_TABLES_H_
#define UTCQ_STRATEGIES_TIER_TABLES_H_

#include "strategies/strategies.h"

// Internal to src/strategies/: one accessor per kernel translation unit.
// Each TU is compiled with its own ISA flags (CMake sets per-file
// COMPILE_OPTIONS), so the only thing allowed to cross the TU boundary is
// the filled-in table — never an inline function that two TUs could merge
// under different instruction sets.

namespace utcq::strategies::detail {

const Kernels* BitloopKernels();
const Kernels* ScalarKernels();

/// nullptr when the toolchain couldn't build the AVX2 TU with its ISA
/// flags (the TU still compiles, as a stub, so the link never breaks).
const Kernels* Avx2Kernels();

}  // namespace utcq::strategies::detail

#endif  // UTCQ_STRATEGIES_TIER_TABLES_H_
