// Shared SAT literal/result types.
//
// Split out of solver.hpp so the Tseitin templates (sat/tseitin.hpp) and
// the miter layer share the literal encoding without pulling in the solver.
#pragma once

#include <cstdint>

namespace tz::sat {

using Var = std::int32_t;

/// Literal encoding: lit = 2*var (positive) or 2*var+1 (negated).
struct Lit {
  std::int32_t x = -2;

  static Lit make(Var v, bool neg = false) { return Lit{2 * v + (neg ? 1 : 0)}; }
  Var var() const { return x >> 1; }
  bool neg() const { return x & 1; }
  Lit operator~() const { return Lit{x ^ 1}; }
  bool operator==(const Lit&) const = default;
};

/// The undefined/sentinel literal (never a real variable).
inline constexpr Lit kLitUndef{-2};

enum class LBool : std::uint8_t { False = 0, True = 1, Undef = 2 };

enum class SolveResult : std::uint8_t { Sat, Unsat, Unknown };

}  // namespace tz::sat
