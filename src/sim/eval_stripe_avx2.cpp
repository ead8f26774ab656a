// AVX2 stripe kernel. This translation unit is compiled with -mavx2 (see
// CMakeLists) and is only part of the build when the toolchain supports the
// flag; EvalPlan::evaluate guards execution behind a runtime CPUID probe, so
// linking it on a non-AVX2 machine is safe.
#define TZ_STRIPE_FN eval_plan_stripe_avx2
#define TZ_STRIPE_USE_AVX2 1
#include "sim/eval_stripe_impl.hpp"
