// Shared fixtures for the TrojanZero test suites: tiny helper netlists and
// deterministic RNG seeding. Keep helpers here instead of copy-pasting them
// across suite files.
#pragma once

#include <cstdint>
#include <iterator>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim_backend.hpp"
#include "atpg/test_set.hpp"
#include "netlist/netlist.hpp"
#include "prob/signal_prob.hpp"
#include "sim/patterns.hpp"
#include "sim/simulator.hpp"

namespace tz::test {

// Canonical seed for tests that need an arbitrary-but-fixed RNG stream.
inline constexpr std::uint64_t kTestSeed = 0xC0FFEE;

// Forces the fault-simulation backend (0 = Auto, 1 = Event, 2 = Packed) for
// the guarded scope and restores the Auto default afterwards — RAII so a
// throw or fatal assertion cannot leak a forced mode into later tests of the
// aggregated runner.
struct FaultModeGuard {
  explicit FaultModeGuard(int mode) { set_fault_sim_mode(mode); }
  ~FaultModeGuard() { set_fault_sim_mode(-1); }
  FaultModeGuard(const FaultModeGuard&) = delete;
  FaultModeGuard& operator=(const FaultModeGuard&) = delete;
};

// ---- reference evaluation -------------------------------------------------
//
// The compiled plan is the only evaluator the engines use. These helpers run
// the Node-walking reference_simulate (through reference_outputs) instead, so
// a parity test can hold an engine to an evaluator that shares no code with
// it.

// functional_test on reference evaluators: reference_simulate for a
// combinational DUT; a sequential DUT already streams through the
// Node-walking CycleSimulator inside functional_test.
inline bool reference_functional_test(const Netlist& dut,
                                      const DefenderSuite& suite) {
  for (const DefenderTestSet& ts : suite.algorithms) {
    if (!dut.dffs().empty()) {
      if (!functional_test(dut, ts)) return false;
      continue;
    }
    if (dut.inputs().size() != ts.patterns.num_signals() ||
        dut.outputs().size() != ts.golden.num_signals() ||
        !BitSimulator::responses_equal(reference_outputs(dut, ts.patterns),
                                       ts.golden)) {
      return false;
    }
  }
  return true;
}

// Signal probabilities by one whole-netlist topological pass: every PI at
// 0.5, every DFF at its reset value 0, every gate through gate_p1.
// SignalProb and PowerTracker must match it bit for bit.
inline std::vector<double> reference_signal_prob(const Netlist& nl) {
  std::vector<double> p1(nl.raw_size(), 0.0);
  for (NodeId id : nl.inputs()) p1[id] = 0.5;
  for (NodeId id : nl.topo_order()) {
    const Node& n = nl.node(id);
    if (n.type != GateType::Input && n.type != GateType::Dff) {
      p1[id] = gate_p1(n, p1);
    }
  }
  return p1;
}

// Per-pattern detection bitmap of stuck-at `f` on the reference evaluator:
// the readers and output markings of the fault site move onto a tie cell in
// a copy of `nl`, and the two netlists' responses are compared. Bit 64w+b of
// word w is set iff pattern 64w+b detects the fault.
inline std::vector<std::uint64_t> reference_detection_bits(
    const Netlist& nl, const PatternSet& in, const Fault& f) {
  Netlist faulty = nl;
  const NodeId tie = faulty.const_node(f.value == StuckAt::One);
  if (tie != f.node) faulty.replace_uses(f.node, tie);
  const PatternSet good = reference_outputs(nl, in);
  const PatternSet bad = reference_outputs(faulty, in);
  std::vector<std::uint64_t> bits(in.num_words(), 0);
  for (std::size_t o = 0; o < good.num_signals(); ++o) {
    for (std::size_t w = 0; w < bits.size(); ++w) {
      bits[w] |= good.words(o)[w] ^ bad.words(o)[w];
    }
  }
  return bits;
}

// Detect flags of `faults` on the backend's current patterns: one drop_sim
// pass from all-false flags.
inline std::vector<bool> detect_flags(FaultSimBackend& backend,
                                      std::span<const Fault> faults) {
  std::vector<bool> flags(faults.size(), false);
  backend.drop_sim(faults, flags);
  return flags;
}

// The same on a fresh backend over `nl` and `patterns` (the process-wide
// mode).
inline std::vector<bool> detect_flags(const Netlist& nl,
                                      std::span<const Fault> faults,
                                      const PatternSet& patterns) {
  const auto backend = make_fault_sim_backend(nl);
  backend->set_patterns(patterns);
  return detect_flags(*backend, faults);
}

// True iff some pattern detects `f`: a one-fault drop_sim.
inline bool detected(FaultSimBackend& backend, const Fault& f) {
  return detect_flags(backend, std::span(&f, 1))[0];
}

inline bool detected(const Netlist& nl, const Fault& f,
                     const PatternSet& patterns) {
  return detect_flags(nl, std::span(&f, 1), patterns)[0];
}

// Adds `n` primary inputs named <prefix>0 .. <prefix>{n-1}.
inline std::vector<NodeId> add_inputs(Netlist& nl, int n,
                                      const std::string& prefix = "i") {
  std::vector<NodeId> ins;
  ins.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ins.push_back(nl.add_input(prefix + std::to_string(i)));
  }
  return ins;
}

// Random netlist over the full combinational alphabet: Buf/Not (arity 1),
// the four AND/OR families and XOR/XNOR at arities 2..8, MUX, and both tie
// cells feeding real logic — the edge shapes the plan compiler specializes.
inline Netlist random_full_alphabet(std::uint64_t seed, int num_gates) {
  std::mt19937_64 rng(seed);
  Netlist nl("rand_" + std::to_string(seed));
  std::vector<NodeId> pool;
  for (int i = 0; i < 6; ++i) {
    pool.push_back(nl.add_input("i" + std::to_string(i)));
  }
  pool.push_back(nl.const_node(false));
  pool.push_back(nl.const_node(true));
  const auto pick = [&] { return pool[rng() % pool.size()]; };
  static constexpr GateType kTypes[] = {
      GateType::Buf, GateType::Not,  GateType::And, GateType::Nand,
      GateType::Or,  GateType::Nor,  GateType::Xor, GateType::Xnor,
      GateType::Mux};
  for (int g = 0; g < num_gates; ++g) {
    const GateType t = kTypes[rng() % std::size(kTypes)];
    std::vector<NodeId> fi;
    if (t == GateType::Buf || t == GateType::Not) {
      fi = {pick()};
    } else if (t == GateType::Mux) {
      fi = {pick(), pick(), pick()};
    } else {
      const std::size_t arity = 2 + rng() % 7;  // 2..8
      for (std::size_t k = 0; k < arity; ++k) fi.push_back(pick());
    }
    pool.push_back(nl.add_gate(t, "g" + std::to_string(g), fi));
  }
  for (std::size_t k = 0; k < 8 && k < pool.size(); ++k) {
    nl.mark_output(pool[pool.size() - 1 - k]);
  }
  return nl;
}

// Minimal two-gate netlist: h = NOT(g), g = AND(a, b), output h.
inline Netlist two_gate() {
  Netlist nl("two");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::And, "g", {a, b});
  const NodeId h = nl.add_gate(GateType::Not, "h", {g});
  nl.mark_output(h);
  return nl;
}

// Eight-input testbed with two rare AND triggers (r0, r1), a XOR victim `v`
// feeding output o, and a second output o2 keeping the triggers alive.
inline Netlist payload_testbed(NodeId* victim, std::vector<NodeId>* rare) {
  Netlist nl;
  const std::vector<NodeId> ins = add_inputs(nl, 8);
  const NodeId r0 = nl.add_gate(GateType::And, "r0", {ins[0], ins[1]});
  const NodeId r1 = nl.add_gate(GateType::And, "r1", {ins[2], ins[3]});
  const NodeId v = nl.add_gate(GateType::Xor, "v", {ins[4], ins[5]});
  const NodeId o = nl.add_gate(GateType::Xor, "o", {v, ins[6]});
  const NodeId o2 = nl.add_gate(GateType::Or, "o2", {r0, r1, ins[7]});
  nl.mark_output(o);
  nl.mark_output(o2);
  *victim = v;
  *rare = {r0, r1};
  return nl;
}

}  // namespace tz::test
