#include "verify/verify.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace tz {

std::string_view to_string(CheckId id) {
  switch (id) {
    case CheckId::NetDanglingFanin: return "net-dangling-fanin";
    case CheckId::NetDuplicateName: return "net-duplicate-name";
    case CheckId::NetBadArity: return "net-bad-arity";
    case CheckId::NetInputList: return "net-input-list";
    case CheckId::NetOutputList: return "net-output-list";
    case CheckId::NetDffList: return "net-dff-list";
    case CheckId::NetFanoutSync: return "net-fanout-sync";
    case CheckId::NetPhantomFanout: return "net-phantom-fanout";
    case CheckId::NetCycle: return "net-cycle";
    case CheckId::NetOrphan: return "net-orphan";
    case CheckId::NetLiveCount: return "net-live-count";
    case CheckId::PlanSlotBijection: return "plan-slot-bijection";
    case CheckId::PlanOpcode: return "plan-opcode";
    case CheckId::PlanCsrBounds: return "plan-csr-bounds";
    case CheckId::PlanCsrStale: return "plan-csr-stale";
    case CheckId::PlanFanoutSync: return "plan-fanout-sync";
    case CheckId::PlanTopoOrder: return "plan-topo-order";
    case CheckId::PlanIoLists: return "plan-io-lists";
    case CheckId::PlanBlockLayout: return "plan-block-layout";
    case CheckId::PlanEquivalence: return "plan-equivalence";
    case CheckId::CampPartition: return "camp-partition";
    case CheckId::CampShardRows: return "camp-shard-rows";
    case CheckId::CampMergeDuplicate: return "camp-merge-duplicate";
    case CheckId::CampMergeMissing: return "camp-merge-missing";
    case CheckId::SatArenaBounds: return "sat-arena-bounds";
    case CheckId::SatWatchBijection: return "sat-watch-bijection";
    case CheckId::SatBinaryWatch: return "sat-binary-watch";
  }
  return "unknown-check";
}

std::size_t VerifyReport::count(CheckId id) const {
  std::size_t n = 0;
  for (const Violation& v : violations) {
    if (v.id == id) ++n;
  }
  return n;
}

void VerifyReport::add(CheckId id, std::string message, NodeId node,
                       SlotId slot) {
  violations.push_back(Violation{id, node, slot, std::move(message)});
}

void VerifyReport::merge(VerifyReport other) {
  violations.insert(violations.end(),
                    std::make_move_iterator(other.violations.begin()),
                    std::make_move_iterator(other.violations.end()));
}

std::string VerifyReport::format() const {
  if (ok()) return "no violations\n";
  std::ostringstream os;
  os << violations.size() << " violation(s):\n";
  for (const Violation& v : violations) {
    os << "  [" << to_string(v.id) << "]";
    if (v.node != kNoNode) os << " node " << v.node;
    if (v.slot != kNoSlot) os << " slot " << v.slot;
    os << ": " << v.message << "\n";
  }
  return os.str();
}

namespace {

/// Minimal JSON string escaping: quotes, backslashes and control bytes (the
/// only things checker messages can contain beyond plain ASCII).
void json_escape(std::ostringstream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

std::string VerifyReport::to_json() const {
  std::ostringstream os;
  os << "{\"ok\": " << (ok() ? "true" : "false") << ", \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    if (i != 0) os << ", ";
    os << "{\"check\": \"" << to_string(v.id) << "\", \"node\": ";
    if (v.node != kNoNode) {
      os << v.node;
    } else {
      os << "null";
    }
    os << ", \"slot\": ";
    if (v.slot != kNoSlot) {
      os << v.slot;
    } else {
      os << "null";
    }
    os << ", \"message\": \"";
    json_escape(os, v.message);
    os << "\"}";
  }
  os << "]}";
  return os.str();
}

namespace {

std::string verify_what(const std::string& phase, const VerifyReport& r) {
  return "tz::verify failed at " + phase + ": " + r.format();
}

/// Same tri-state env convention as TZ_SIMD (eval_plan.cpp):
/// "0"/"false"/"off" disables, any other value enables, unset falls through
/// to the build-type default.
int read_check_env() {
  const char* env = std::getenv("TZ_CHECK");
  if (env == nullptr) {
#if defined(NDEBUG)
    return 0;  // Release hot paths: off unless explicitly requested.
#else
    return 1;  // Debug/test builds: checkers armed by default.
#endif
  }
  const std::string_view v(env);
  const bool off =
      v == "0" || v == "false" || v == "FALSE" || v == "off" || v == "OFF";
  return off ? 0 : 1;
}

std::atomic<int>& check_override() {
  static std::atomic<int> mode{-1};
  return mode;
}

}  // namespace

VerifyError::VerifyError(std::string phase, VerifyReport report)
    : std::runtime_error(verify_what(phase, report)),
      phase_(std::move(phase)),
      report_(std::move(report)) {}

bool check_enabled() {
  const int ovr = check_override().load(std::memory_order_relaxed);
  if (ovr >= 0) return ovr != 0;
  static const int env_mode = read_check_env();
  return env_mode != 0;
}

void set_check_enabled(int mode) {
  check_override().store(mode < 0 ? -1 : (mode != 0),
                         std::memory_order_relaxed);
}

void verify_or_throw(const Netlist& nl, const EvalPlan* plan,
                     std::string_view phase, const NetlistCheckOptions& nopt,
                     const PlanCheckOptions& popt) {
  VerifyReport report = NetlistChecker::run(nl, nopt);
  if (plan != nullptr) report.merge(PlanChecker::run(*plan, nl, popt));
  if (!report.ok()) throw VerifyError(std::string(phase), std::move(report));
}

}  // namespace tz
