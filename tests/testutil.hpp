// Shared fixtures for the TrojanZero test suites: tiny helper netlists and
// deterministic RNG seeding. Keep helpers here instead of copy-pasting them
// across suite files.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim_backend.hpp"
#include "atpg/test_set.hpp"
#include "netlist/netlist.hpp"
#include "sim/patterns.hpp"
#include "sim/simulator.hpp"

namespace tz::test {

// Canonical seed for tests that need an arbitrary-but-fixed RNG stream.
inline constexpr std::uint64_t kTestSeed = 0xC0FFEE;

// Forces the fault-simulation backend (0 = Auto, 1 = Event, 2 = Packed) for
// the guarded scope and restores the TZ_FAULT_MODE environment default
// afterwards — RAII so a throw or fatal assertion cannot leak a forced mode
// into later tests of the aggregated runner.
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
