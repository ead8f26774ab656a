// tz_sat — randomized miter fuzzing and CNF dumps for the SAT tier.
//
// `fuzz` generates seeded random circuits small enough for an exhaustive
// truth-table oracle, applies a random edit (gate retype, input swap, or
// none), and cross-checks the incremental miter's verdict against the
// oracle in every prepass/structural-matching configuration. A mismatch
// dumps the offending miter CNF next to the report and exits 1, so a CI
// smoke run leaves a reproducer behind.
//
// `dump` writes the miter CNF for two benchmark specs to a DIMACS file via
// MiterOptions::dimacs_path, for offline debugging with external solvers.
//
// Usage: tz_sat fuzz [--runs N] [--seed S] [--dump-dir DIR]
//        tz_sat dump <spec-a> <spec-b> <out.cnf>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "gen/iscas.hpp"
#include "gen/random_circuit.hpp"
#include "netlist/bench_io.hpp"
#include "sat/miter.hpp"
#include "sim/patterns.hpp"
#include "sim/simulator.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: tz_sat fuzz [--runs N] [--seed S] [--dump-dir DIR]\n"
               "       tz_sat dump <spec-a> <spec-b> <out.cnf>\n"
               "  fuzz: random small-circuit miters vs an exhaustive oracle,\n"
               "        across the prepass/structural-match option matrix\n"
               "  dump: write the miter CNF for two make_benchmark specs\n");
  return 2;
}

/// The whole of `text` as a decimal number.
template <class T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [p, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && p == end;
}

/// Exhaustive oracle: equal iff all outputs agree on all 2^PI vectors
/// (circuits are combinational; DFYs absent by construction).
bool oracle_equal(const tz::Netlist& a, const tz::Netlist& b) {
  const tz::PatternSet ps = tz::exhaustive_patterns(a.inputs().size());
  return tz::BitSimulator::responses_equal(tz::BitSimulator(a).outputs(ps),
                                           tz::BitSimulator(b).outputs(ps));
}

/// One of three edit flavors; returns false when the circuit offered no
/// applicable edit site (the run still checks the identity miter).
bool random_edit(tz::Netlist& nl, std::mt19937_64& rng) {
  const int flavor = static_cast<int>(rng() % 3);
  if (flavor == 0) return false;  // identity: must verify equivalent
  std::vector<tz::NodeId> gates;
  for (tz::NodeId id = 0; id < nl.raw_size(); ++id) {
    if (!nl.is_alive(id)) continue;
    const tz::GateType t = nl.node(id).type;
    if (t == tz::GateType::Input || t == tz::GateType::Dff) continue;
    gates.push_back(id);
  }
  if (gates.empty()) return false;
  const tz::NodeId g = gates[rng() % gates.size()];
  if (flavor == 1) {
    // Retype within the 2+-input families the encoder covers.
    static constexpr tz::GateType kPool[] = {
        tz::GateType::And, tz::GateType::Or, tz::GateType::Nand,
        tz::GateType::Nor, tz::GateType::Xor};
    const tz::GateType to = kPool[rng() % 5];
    if (nl.node(g).type == to || nl.node(g).fanin.size() < 2) return false;
    nl.retype(g, to);
    return true;
  }
  // Flavor 2: negate the gate's function where possible (And<->Nand etc.).
  switch (nl.node(g).type) {
    case tz::GateType::And: nl.retype(g, tz::GateType::Nand); return true;
    case tz::GateType::Nand: nl.retype(g, tz::GateType::And); return true;
    case tz::GateType::Or: nl.retype(g, tz::GateType::Nor); return true;
    case tz::GateType::Nor: nl.retype(g, tz::GateType::Or); return true;
    case tz::GateType::Xor: nl.retype(g, tz::GateType::Xnor); return true;
    case tz::GateType::Xnor: nl.retype(g, tz::GateType::Xor); return true;
    case tz::GateType::Buf: nl.retype(g, tz::GateType::Not); return true;
    case tz::GateType::Not: nl.retype(g, tz::GateType::Buf); return true;
    default: return false;
  }
}

int run_fuzz(int runs, std::uint64_t seed, const std::string& dump_dir) {
  int failures = 0;
  for (int run = 0; run < runs; ++run) {
    std::mt19937_64 rng(seed + static_cast<std::uint64_t>(run) * 7919);
    tz::RandomCircuitSpec spec;
    spec.seed = rng();
    spec.num_inputs = 4 + static_cast<int>(rng() % 9);  // 4..12: oracle-sized
    spec.num_gates = 10 + static_cast<int>(rng() % 70);
    const tz::Netlist original = tz::random_circuit(spec);
    tz::Netlist edited = original;
    random_edit(edited, rng);
    const bool truth = oracle_equal(original, edited);

    for (const bool prepass : {false, true}) {
      for (const bool structural : {false, true}) {
        tz::sat::MiterOptions opts;
        opts.prepass = prepass;
        opts.structural_match = structural;
        tz::sat::IncrementalMiter miter(original, edited, opts);
        const tz::sat::EquivalenceResult res = miter.check();
        if (res.decided && res.equivalent == truth) continue;
        ++failures;
        std::fprintf(stderr,
                     "FAIL run %d (seed %llu, prepass=%d, structural=%d): "
                     "miter says %s, oracle says %s\n",
                     run, static_cast<unsigned long long>(spec.seed),
                     prepass ? 1 : 0, structural ? 1 : 0,
                     !res.decided ? "undecided"
                                  : (res.equivalent ? "equal" : "unequal"),
                     truth ? "equal" : "unequal");
        if (!dump_dir.empty()) {
          const std::string path =
              dump_dir + "/tz_sat_fail_" + std::to_string(run) + ".cnf";
          std::ofstream os(path);
          miter.solver().write_dimacs(os);
          std::fprintf(stderr, "  miter CNF dumped to %s\n", path.c_str());
        }
      }
    }
  }
  if (failures == 0) {
    std::printf("tz_sat fuzz: %d runs x 4 configs clean\n", runs);
    return 0;
  }
  std::fprintf(stderr, "tz_sat fuzz: %d mismatch(es)\n", failures);
  return 1;
}

int run_dump(const char* spec_a, const char* spec_b, const char* out) {
  const tz::Netlist a = tz::make_benchmark(spec_a);
  const tz::Netlist b = tz::make_benchmark(spec_b);
  tz::sat::MiterOptions opts;
  opts.dimacs_path = out;
  tz::sat::IncrementalMiter miter(a, b, opts);
  const tz::sat::EquivalenceResult res = miter.check();
  std::printf("%s vs %s: %s (CNF at %s)\n", spec_a, spec_b,
              !res.decided ? "undecided"
                           : (res.equivalent ? "equivalent" : "inequivalent"),
              out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "fuzz") {
      int runs = 32;
      std::uint64_t seed = 1;
      std::string dump_dir;
      for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
          if (!parse_number(argv[++i], runs) || runs < 1) return usage();
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
          if (!parse_number(argv[++i], seed)) return usage();
        } else if (std::strcmp(argv[i], "--dump-dir") == 0 && i + 1 < argc) {
          dump_dir = argv[++i];
        } else {
          return usage();
        }
      }
      return run_fuzz(runs, seed, dump_dir);
    }
    if (cmd == "dump" && argc == 5) return run_dump(argv[2], argv[3], argv[4]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tz_sat: %s\n", e.what());
    return 1;
  }
  return usage();
}
