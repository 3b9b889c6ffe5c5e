// Self-test of the benchmark's checker: each check must accept the
// right output and reject a wrong one. Run through
//   python3 perfbench/run.py --selftest
// Exit 0 when every wrong output was rejected and every right one
// accepted.
#include <cstdio>
#include <string>

#include "checker.hpp"

namespace {

using mdac::core::AttributeValue;
using mdac::core::Decision;
using mdac::core::ObligationInstance;
using perfbench::Checker;
using perfbench::Expect;

int failures = 0;

/// Runs one check on a fresh Checker and compares accept/reject with
/// what the case wants.
template <typename F>
void expect_case(const char* name, bool want_accept, F&& check) {
  Checker c;
  const bool accepted = check(c);
  const bool consistent = accepted == c.ok();
  const bool pass = consistent && accepted == want_accept;
  std::printf("%-58s %s\n", name, pass ? "ok" : "FAILED");
  if (!pass) ++failures;
}

Decision audited_permit(const std::string& obligation_id, const std::string& who) {
  Decision d = Decision::permit();
  d.obligations.push_back(ObligationInstance{obligation_id, {{"who", AttributeValue(who)}}});
  return d;
}

}  // namespace

int main() {
  const std::string ob = "domain-0:set:svc-1:role-2:audit";

  // Decisions against the closed-form answer.
  expect_case("right decision accepted", true,
              [](Checker& c) { return c.decision(Expect::kPermit, Decision::permit(), "t"); });
  expect_case("corrupted decision (deny for permit) rejected", false,
              [](Checker& c) { return c.decision(Expect::kPermit, Decision::deny(), "t"); });
  expect_case("corrupted decision (permit for not-applicable) rejected", false, [](Checker& c) {
    return c.decision(Expect::kNotApplicable, Decision::permit(), "t");
  });

  // Audit obligations.
  expect_case("right audit obligation accepted", true, [&](Checker& c) {
    return c.audit(Expect::kPermit, audited_permit(ob, "user-0-7"), ob, "user-0-7", "t");
  });
  expect_case("wrong obligation (other subject) rejected", false, [&](Checker& c) {
    return c.audit(Expect::kPermit, audited_permit(ob, "mallory"), ob, "user-0-7", "t");
  });
  expect_case("wrong obligation (other leaf) rejected", false, [&](Checker& c) {
    return c.audit(Expect::kPermit, audited_permit("domain-0:set:svc-1:role-3:audit", "user-0-7"),
                   ob, "user-0-7", "t");
  });
  expect_case("missing obligation on a permit rejected", false, [&](Checker& c) {
    return c.audit(Expect::kPermit, Decision::permit(), ob, "user-0-7", "t");
  });
  expect_case("duplicated obligation rejected", false, [&](Checker& c) {
    Decision d = audited_permit(ob, "user-0-7");
    d.obligations.push_back(d.obligations.front());
    return c.audit(Expect::kPermit, d, ob, "user-0-7", "t");
  });

  // Snapshot stamps.
  expect_case("current snapshot stamp accepted", true,
              [](Checker& c) { return c.snapshot(6, 5, 1, 7, "t"); });
  expect_case("stale snapshot stamp rejected", false,
              [](Checker& c) { return c.snapshot(4, 5, 1, 7, "t"); });
  expect_case("never-published snapshot stamp rejected", false,
              [](Checker& c) { return c.snapshot(9, 5, 1, 7, "t"); });

  // Enforcement, counts and trace nesting.
  expect_case("PEP allowing a deny rejected", false, [](Checker& c) {
    mdac::pep::Enforcement e;
    e.allowed = true;
    e.decision = Decision::deny();
    return c.enforcement(Expect::kDeny, e, "t");
  });
  expect_case("permit enforced without its obligation rejected", false, [&](Checker& c) {
    mdac::pep::Enforcement e;
    e.allowed = true;
    e.decision = audited_permit(ob, "user-0-7");
    return c.enforcement(Expect::kPermit, e, "t");
  });
  expect_case("lost completion (count mismatch) rejected", false,
              [](Checker& c) { return c.equal(999, 1000, "completions"); });
  expect_case("trace longer than its request rejected", false,
              [](Checker& c) { return c.nested(5000, 4000, 42); });
  expect_case("nested trace accepted", true, [](Checker& c) { return c.nested(4000, 5000, 42); });

  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
