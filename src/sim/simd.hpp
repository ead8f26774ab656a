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
// stripe_kernel() picks once per process: AVX2 when the CPU reports it and
// TZ_SIMD is not "0"/"false"/"off", the generic kernel otherwise. Both are
// bit-identical to eval_plan_slot (the parity tests pin all three down).
#pragma once

#include <cstddef>
#include <cstdint>

namespace tz {

class EvalPlan;

namespace detail {

/// Evaluate the non-source slots in [begin, end) of one stripe-major block:
/// row of slot s is `stripe + s * bw` (bw = the stripe's word count). The
/// full-plan sweep passes [0, num_slots); the packed fault-simulation engine
/// splits the sweep at fault-site slots so it can force the stuck values
/// between ranges before any reader slot evaluates.
using StripeKernelFn = void (*)(const EvalPlan& plan, std::uint64_t* stripe,
                                std::size_t bw, std::uint32_t begin,
                                std::uint32_t end);

void eval_plan_stripe_generic(const EvalPlan& plan, std::uint64_t* stripe,
                              std::size_t bw, std::uint32_t begin,
                              std::uint32_t end);
#ifdef TZ_AVX2_KERNELS
void eval_plan_stripe_avx2(const EvalPlan& plan, std::uint64_t* stripe,
                           std::size_t bw, std::uint32_t begin,
                           std::uint32_t end);
#endif

/// The kernel for this process (CPUID probe + TZ_SIMD override, cached).
StripeKernelFn stripe_kernel();

}  // namespace detail
}  // namespace tz
