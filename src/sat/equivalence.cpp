#include "sat/equivalence.hpp"

#include "sat/miter.hpp"

namespace tz::sat {

EquivalenceResult check_equivalence(const Netlist& a, const Netlist& b,
                                    std::int64_t conflict_limit) {
  MiterOptions opts;
  opts.conflict_limit = conflict_limit;
  IncrementalMiter miter(a, b, std::move(opts));
  return miter.check();
}

}  // namespace tz::sat
