// Stripe kernel body, compiled once per ISA variant.
//
// The including translation unit defines TZ_STRIPE_FN to the exported kernel
// name (and TZ_STRIPE_USE_AVX2 for the __m256i variant) before including
// this file. Everything except the kernel itself sits in an anonymous
// namespace, so the two instantiations cannot collide at link time.
//
// The kernel is the stripe-major counterpart of eval_plan_slot's row loops:
// same opcode semantics, but fanin rows are `stripe + slot * bw` (all rows of
// one cache-blocked stripe are contiguous) and the two-operand bodies run 256
// bits per step with a scalar tail. Bit-identical to the scalar kernels — the
// cross-mode parity tests enforce it.

#ifndef TZ_STRIPE_FN
#error "define TZ_STRIPE_FN before including eval_stripe_impl.hpp"
#endif

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "sim/eval_plan.hpp"
#include "sim/simd.hpp"

#ifdef TZ_STRIPE_USE_AVX2
#include <immintrin.h>
#endif

namespace tz::detail {
namespace {

#ifdef TZ_STRIPE_USE_AVX2

struct V {
  __m256i v;
};
inline V vload(const std::uint64_t* p) {
  return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
}
inline void vstore(std::uint64_t* p, V x) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), x.v);
}
inline V vand(V x, V y) { return {_mm256_and_si256(x.v, y.v)}; }
inline V vor(V x, V y) { return {_mm256_or_si256(x.v, y.v)}; }
inline V vxor(V x, V y) { return {_mm256_xor_si256(x.v, y.v)}; }
inline V vnot(V x) { return {_mm256_xor_si256(x.v, _mm256_set1_epi64x(-1))}; }
/// ~x & y in one instruction.
inline V vandn(V x, V y) { return {_mm256_andnot_si256(x.v, y.v)}; }

#else

/// Portable 256-bit word: four packed 64-bit lanes the optimizer can keep in
/// whatever registers the base ISA offers.
struct V {
  std::uint64_t x[4];
};
inline V vload(const std::uint64_t* p) { return {{p[0], p[1], p[2], p[3]}}; }
inline void vstore(std::uint64_t* p, V a) {
  p[0] = a.x[0];
  p[1] = a.x[1];
  p[2] = a.x[2];
  p[3] = a.x[3];
}
inline V vand(V a, V b) {
  return {{a.x[0] & b.x[0], a.x[1] & b.x[1], a.x[2] & b.x[2],
           a.x[3] & b.x[3]}};
}
inline V vor(V a, V b) {
  return {{a.x[0] | b.x[0], a.x[1] | b.x[1], a.x[2] | b.x[2],
           a.x[3] | b.x[3]}};
}
inline V vxor(V a, V b) {
  return {{a.x[0] ^ b.x[0], a.x[1] ^ b.x[1], a.x[2] ^ b.x[2],
           a.x[3] ^ b.x[3]}};
}
inline V vnot(V a) { return {{~a.x[0], ~a.x[1], ~a.x[2], ~a.x[3]}}; }
inline V vandn(V a, V b) {
  return {{~a.x[0] & b.x[0], ~a.x[1] & b.x[1], ~a.x[2] & b.x[2],
           ~a.x[3] & b.x[3]}};
}

#endif

// Scalar twins so the generic lambdas below cover the tail words too.
inline std::uint64_t vand(std::uint64_t a, std::uint64_t b) { return a & b; }
inline std::uint64_t vor(std::uint64_t a, std::uint64_t b) { return a | b; }
inline std::uint64_t vxor(std::uint64_t a, std::uint64_t b) { return a ^ b; }
inline std::uint64_t vnot(std::uint64_t a) { return ~a; }
inline std::uint64_t vandn(std::uint64_t a, std::uint64_t b) {
  return ~a & b;
}

constexpr std::size_t kLanes = 4;

template <typename F>
inline void map1(std::uint64_t* __restrict out, const std::uint64_t* a,
                 std::size_t n, F f) {
  std::size_t w = 0;
  for (; w + kLanes <= n; w += kLanes) vstore(out + w, f(vload(a + w)));
  for (; w < n; ++w) out[w] = f(a[w]);
}

template <typename F>
inline void map2(std::uint64_t* __restrict out, const std::uint64_t* a,
                 const std::uint64_t* b, std::size_t n, F f) {
  std::size_t w = 0;
  for (; w + kLanes <= n; w += kLanes) {
    vstore(out + w, f(vload(a + w), vload(b + w)));
  }
  for (; w < n; ++w) out[w] = f(a[w], b[w]);
}

template <typename F>
inline void map3(std::uint64_t* __restrict out, const std::uint64_t* a,
                 const std::uint64_t* b, const std::uint64_t* c, std::size_t n,
                 F f) {
  std::size_t w = 0;
  for (; w + kLanes <= n; w += kLanes) {
    vstore(out + w, f(vload(a + w), vload(b + w), vload(c + w)));
  }
  for (; w < n; ++w) out[w] = f(a[w], b[w], c[w]);
}

}  // namespace

void TZ_STRIPE_FN(const EvalPlan& plan, std::uint64_t* stripe,
                  std::size_t bw) {
  const EvalOp* ops = plan.ops_data();
  const std::uint32_t* offs = plan.fanin_offsets_data();
  const SlotId* fslots = plan.fanin_slots_data();
  const auto f_and = [](auto a, auto b) { return vand(a, b); };
  const auto f_or = [](auto a, auto b) { return vor(a, b); };
  const auto f_xor = [](auto a, auto b) { return vxor(a, b); };
  const auto n = static_cast<SlotId>(plan.num_slots());
  for (SlotId s = 0; s < n; ++s) {
    const EvalOp op = ops[s];
    if (op == EvalOp::Source || op == EvalOp::Dead) continue;
    const SlotId* f = fslots + offs[s];
    const std::size_t arity = offs[s + 1] - offs[s];
    std::uint64_t* out = stripe + std::size_t{s} * bw;
    const auto row = [&](std::size_t i) {
      return stripe + std::size_t{f[i]} * bw;
    };
    switch (op) {
      case EvalOp::Const0:
        std::fill_n(out, bw, 0);
        break;
      case EvalOp::Const1:
        std::fill_n(out, bw, ~std::uint64_t{0});
        break;
      case EvalOp::Buf:
        std::copy_n(row(0), bw, out);
        break;
      case EvalOp::Not:
        map1(out, row(0), bw, [](auto a) { return vnot(a); });
        break;
      case EvalOp::And2:
        map2(out, row(0), row(1), bw, f_and);
        break;
      case EvalOp::Nand2:
        map2(out, row(0), row(1), bw,
             [](auto a, auto b) { return vnot(vand(a, b)); });
        break;
      case EvalOp::Or2:
        map2(out, row(0), row(1), bw, f_or);
        break;
      case EvalOp::Nor2:
        map2(out, row(0), row(1), bw,
             [](auto a, auto b) { return vnot(vor(a, b)); });
        break;
      case EvalOp::Xor2:
        map2(out, row(0), row(1), bw, f_xor);
        break;
      case EvalOp::Xnor2:
        map2(out, row(0), row(1), bw,
             [](auto a, auto b) { return vnot(vxor(a, b)); });
        break;
      case EvalOp::Mux:
        // out = sel ? b : a, lane-wise: (sel & b) | (~sel & a).
        map3(out, row(0), row(1), row(2), bw, [](auto sel, auto a, auto b) {
          return vor(vand(sel, b), vandn(sel, a));
        });
        break;
      case EvalOp::AndN:
      case EvalOp::NandN:
        map2(out, row(0), row(1), bw, f_and);
        for (std::size_t i = 2; i < arity; ++i) {
          map2(out, out, row(i), bw, f_and);
        }
        if (op == EvalOp::NandN) {
          map1(out, out, bw, [](auto a) { return vnot(a); });
        }
        break;
      case EvalOp::OrN:
      case EvalOp::NorN:
        map2(out, row(0), row(1), bw, f_or);
        for (std::size_t i = 2; i < arity; ++i) {
          map2(out, out, row(i), bw, f_or);
        }
        if (op == EvalOp::NorN) {
          map1(out, out, bw, [](auto a) { return vnot(a); });
        }
        break;
      case EvalOp::XorN:
      case EvalOp::XnorN:
        map2(out, row(0), row(1), bw, f_xor);
        for (std::size_t i = 2; i < arity; ++i) {
          map2(out, out, row(i), bw, f_xor);
        }
        if (op == EvalOp::XnorN) {
          map1(out, out, bw, [](auto a) { return vnot(a); });
        }
        break;
      default:
        throw std::logic_error("eval_plan_stripe: unhandled opcode");
    }
  }
}

}  // namespace tz::detail
