// The benchmark's correctness checks, apart from the program: every
// decision is compared with the closed-form answer (inputs.hpp), every
// audited Permit with the obligation its generating leaf must attach,
// and every snapshot stamp with the versions the benchmark published.
// Each check returns true when the output is accepted; a rejection is
// counted and its first few messages are kept for the report.
// tests: perfbench/src/selftest.cpp feeds each check a wrong output.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/decision.hpp"
#include "inputs.hpp"
#include "pep/pep.hpp"

namespace perfbench {

inline bool matches(Expect e, mdac::core::DecisionType t) {
  using mdac::core::DecisionType;
  switch (e) {
    case Expect::kPermit: return t == DecisionType::kPermit;
    case Expect::kDeny: return t == DecisionType::kDeny;
    case Expect::kNotApplicable: return t == DecisionType::kNotApplicable;
  }
  return false;
}

class Checker {
 public:
  /// Safe from any thread.
  void reject(std::string message) {
    rejections_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(mutex_);
    if (messages_.size() < kKeptMessages) messages_.push_back(std::move(message));
  }

  bool ok() const { return rejections_.load(std::memory_order_relaxed) == 0; }
  std::uint64_t rejections() const { return rejections_.load(std::memory_order_relaxed); }
  std::vector<std::string> messages() const {
    std::lock_guard lock(mutex_);
    return messages_;
  }

  /// The decision type equals the closed-form answer. Indeterminate is a
  /// failed operation, not a wrong answer: callers count it before
  /// calling this.
  bool decision(Expect expected, const mdac::core::Decision& d, std::string_view what) {
    if (matches(expected, d.type)) return true;
    reject(std::string(what) + ": expected " + to_string(expected) + ", got " + d.describe());
    return false;
  }

  /// An audited Permit carries exactly one obligation, the one of the
  /// leaf that decided, whose single `who` assignment is the subject.
  /// Anything other than a Permit must carry none.
  bool audit(Expect expected, const mdac::core::Decision& d, std::string_view obligation_id,
             std::string_view subject, std::string_view what) {
    if (expected != Expect::kPermit) {
      if (d.obligations.empty()) return true;
      reject(std::string(what) + ": obligation on a non-permit");
      return false;
    }
    if (d.obligations.size() != 1) {
      reject(std::string(what) + ": " + std::to_string(d.obligations.size()) +
             " obligations on a permit, expected 1");
      return false;
    }
    const mdac::core::ObligationInstance& ob = d.obligations.front();
    if (ob.id != obligation_id) {
      reject(std::string(what) + ": obligation " + ob.id + ", expected " +
             std::string(obligation_id));
      return false;
    }
    if (ob.assignments.size() != 1 || ob.assignments.front().first != "who" ||
        !ob.assignments.front().second.is_string() ||
        ob.assignments.front().second.as_string() != subject) {
      reject(std::string(what) + ": audit obligation does not name subject " +
             std::string(subject));
      return false;
    }
    return true;
  }

  /// The PEP allows exactly the Permits and reports one discharged
  /// obligation for each.
  bool enforcement(Expect expected, const mdac::pep::Enforcement& e, std::string_view what) {
    const bool want_allowed = expected == Expect::kPermit;
    if (e.allowed != want_allowed) {
      reject(std::string(what) + ": PEP " + (e.allowed ? "allowed" : "refused") + " a " +
             to_string(expected));
      return false;
    }
    const std::size_t want_fulfilled = want_allowed ? 1 : 0;
    if (e.obligations_fulfilled.size() != want_fulfilled) {
      reject(std::string(what) + ": " + std::to_string(e.obligations_fulfilled.size()) +
             " obligations fulfilled, expected " + std::to_string(want_fulfilled));
      return false;
    }
    return true;
  }

  /// The stamp is a version the benchmark published (first..latest) and
  /// no older than the version the last mutation that returned before
  /// the request was submitted published (`floor`).
  bool snapshot(std::uint64_t stamped, std::uint64_t floor, std::uint64_t first,
                std::uint64_t latest, std::string_view what) {
    if (stamped < first || stamped > latest) {
      reject(std::string(what) + ": snapshot version " + std::to_string(stamped) +
             " was never published (published " + std::to_string(first) + ".." +
             std::to_string(latest) + ")");
      return false;
    }
    if (stamped < floor) {
      reject(std::string(what) + ": stale snapshot version " + std::to_string(stamped) +
             " for a request submitted after version " + std::to_string(floor) +
             " was published");
      return false;
    }
    return true;
  }

  /// Two counts that must be equal (completions vs submissions, the
  /// benchmark's cache-level tally vs the engine's counters, handler
  /// calls vs Permits).
  bool equal(std::uint64_t got, std::uint64_t want, std::string_view what) {
    if (got == want) return true;
    reject(std::string(what) + ": " + std::to_string(got) + " != " + std::to_string(want));
    return false;
  }

  /// A sampled explain trace cannot last longer than the benchmark's
  /// own submit-to-callback time for the same request: the trace is
  /// admitted inside submit() and finished before the callback runs.
  bool nested(std::uint64_t trace_ns, std::uint64_t outer_ns, std::uint64_t trace_id) {
    if (trace_ns <= outer_ns) return true;
    reject("trace " + std::to_string(trace_id) + " lasted " + std::to_string(trace_ns) +
           " ns, longer than its submit-to-callback time " + std::to_string(outer_ns) + " ns");
    return false;
  }

 private:
  static constexpr std::size_t kKeptMessages = 8;
  std::atomic<std::uint64_t> rejections_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> messages_;
};

}  // namespace perfbench
