#include "strategies/strategies.h"

#include <atomic>

#include "strategies/word_kernels.h"

namespace utcq::strategies {

const Kernels kScalar = {
    &WordGetBits,    &WordScanZeroRun, &WordScanOneRun,
    &WordReadFields, &WordUnpackBits,  &WordPddpDecode,
    &WordDecodeIeg,  &WordPddpRun,     &ScalarLerp,
    &ScalarMulAdd,   "scalar",
};

const Kernels kBitloop = {
    &BitloopGetBits,    &BitloopScanZeroRun, &BitloopScanOneRun,
    &BitloopReadFields, &BitloopUnpackBits,  &BitloopPddpDecode,
    &BitloopDecodeIeg,  &BitloopPddpRun,     &ScalarLerp,
    &ScalarMulAdd,      "bitloop",
};

namespace {

// Constant-initialised, so there is no first-call resolution and no
// static-init-order window: a decode from another TU's static initializer
// already sees kScalar.
constinit std::atomic<const Kernels*> g_active{&kScalar};

}  // namespace

const Kernels& Active() { return *g_active.load(std::memory_order_acquire); }

void SetActive(const Kernels& kernels) {
  g_active.store(&kernels, std::memory_order_release);
}

}  // namespace utcq::strategies
