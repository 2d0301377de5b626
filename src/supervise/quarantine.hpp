// Poison-work quarantine (paper Sec. 4.4: "everything fails at scale").
//
// Retry policies key failure history by JobId, but a JobId is minted per
// submission: a work item that deterministically kills, hangs or crashes
// whatever runs it looks like a fresh job on every resubmission and burns
// restart budget (and nodes) forever. The ledger keys failure history by the
// *logical payload* — (job type, payload id) — so repeat offenders are
// recognized across resubmissions, allocations and even coordination-process
// crashes (the ledger serializes into the WorkflowManager checkpoint blob).
//
// Two quarantine criteria, both deterministic:
//   - `strike_limit` genuine failures + hangs, in any mix;
//   - node kills on `strike_limit` *distinct* nodes — one payload surviving
//     several node crashes is bad luck; one whose host dies everywhere it
//     lands is poison (the paper's "jobs that kill the node they run on").
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace mummi::supervise {

enum class StrikeKind : std::uint8_t {
  kFailure,   // payload exited unsuccessfully on a healthy node
  kHang,      // watchdog cancelled the payload past its hard deadline
  kNodeKill,  // the node running the payload died
};

[[nodiscard]] const char* to_string(StrikeKind kind);

class QuarantineLedger {
 public:
  /// `strike_limit`: strikes needed to quarantine; <= 0 disables
  /// quarantining (strikes are still recorded for diagnostics).
  explicit QuarantineLedger(int strike_limit = 3)
      : strike_limit_(strike_limit) {}

  struct Entry {
    std::uint32_t failures = 0;
    std::uint32_t hangs = 0;
    std::uint32_t node_kills = 0;
    std::vector<int> nodes_killed;  // distinct, ascending
    bool quarantined = false;
    double first_strike_s = 0.0;
    double quarantined_at_s = -1.0;

    [[nodiscard]] std::uint32_t direct_strikes() const {
      return failures + hangs;
    }
  };

  /// Records one strike at virtual time `now`; `node` attributes kNodeKill
  /// strikes (ignored otherwise). Returns true when *this* strike pushed the
  /// payload over the limit (exactly one true per quarantined payload).
  bool strike(const std::string& type, std::uint64_t payload, StrikeKind kind,
              double now, int node = -1);

  [[nodiscard]] bool quarantined(const std::string& type,
                                 std::uint64_t payload) const;
  /// nullptr when the payload has no recorded history.
  [[nodiscard]] const Entry* find(const std::string& type,
                                  std::uint64_t payload) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t quarantined_count() const { return n_quarantined_; }
  /// "type:payload" keys of quarantined entries, ascending — a deterministic
  /// summary for logs, benches and determinism tests.
  [[nodiscard]] std::vector<std::string> quarantined_keys() const;

  /// Checkpointable state, appended to `w`; restore() replaces the whole
  /// ledger from `r` (the strike limit is configuration and is not
  /// serialized). All or nothing: on malformed bytes it throws
  /// util::FormatError and the ledger is unchanged.
  void serialize(util::ByteWriter& w) const;
  void restore(util::ByteReader& r);

 private:
  using Key = std::pair<std::string, std::uint64_t>;
  std::map<Key, Entry> entries_;  // ordered: deterministic iteration
  int strike_limit_;
  std::size_t n_quarantined_ = 0;
};

}  // namespace mummi::supervise
