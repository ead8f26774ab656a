// Runtime-dispatched SIMD stripe kernels for the EvalPlan.
//
// EvalPlan::evaluate walks one stripe-major block at a time through a kernel
// that processes 256 bits (four packed words) per operation in the
// two-operand opcodes. The kernel body lives in eval_stripe_impl.hpp and is
// compiled twice with internal-linkage vector types:
//   eval_stripe_generic.cpp  portable 4x64 word ops at the base ISA
//   eval_stripe_avx2.cpp     __m256i intrinsics, built with -mavx2 (present
//                            only when the toolchain supports the flag; see
//                            CMakeLists TZ_AVX2_KERNELS)
// EvalPlan::evaluate picks one once per process: AVX2 when the CPU reports it
// and TZ_SIMD is not "0"/"false"/"off", the generic kernel otherwise. Both
// are bit-identical to eval_plan_slot (the parity tests pin all three down).
#pragma once

#include <cstddef>
#include <cstdint>

namespace tz {

class EvalPlan;

namespace detail {

/// Evaluate every non-source slot of one stripe-major block: row of slot s
/// is `stripe + s * bw` (bw = the stripe's word count).
using StripeKernelFn = void (*)(const EvalPlan& plan, std::uint64_t* stripe,
                                std::size_t bw);

void eval_plan_stripe_generic(const EvalPlan& plan, std::uint64_t* stripe,
                              std::size_t bw);
#ifdef TZ_AVX2_KERNELS
void eval_plan_stripe_avx2(const EvalPlan& plan, std::uint64_t* stripe,
                           std::size_t bw);
#endif

}  // namespace detail
}  // namespace tz
