// Seeded inputs of the end-to-end benchmark: policy documents rendered
// from the XML templates in perfbench/policies, request streams, the
// churn plan, and the closed-form answer every decision is checked
// against. Nothing here calls a PDP: the expected decision of a request
// follows from how the request and the policies were generated.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/attribute.hpp"
#include "core/request.hpp"

namespace perfbench {

/// The three answers the workloads are built to produce. Indeterminate
/// is never expected: when one happens it is a failed operation.
enum class Expect : std::uint8_t { kPermit, kDeny, kNotApplicable };

inline const char* to_string(Expect e) {
  switch (e) {
    case Expect::kPermit: return "permit";
    case Expect::kDeny: return "deny";
    case Expect::kNotApplicable: return "not-applicable";
  }
  return "?";
}

inline constexpr std::array<const char*, 2> kActions = {"read", "write"};

inline std::string domain_name(int d) { return "domain-" + std::to_string(d); }
inline std::string role_name(int r) { return "role-" + std::to_string(r); }
inline std::string service_name(int s) { return "svc-" + std::to_string(s); }

// ---------------------------------------------------------------------
// Templates
// ---------------------------------------------------------------------

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Replaces every "@KEY@" in `text`; a placeholder left over is an error
/// (a template and its generator disagree).
inline std::string fill(std::string text,
                        const std::vector<std::pair<std::string, std::string>>& values) {
  for (const auto& [key, value] : values) {
    const std::string token = "@" + key + "@";
    for (std::size_t at = text.find(token); at != std::string::npos;
         at = text.find(token, at + value.size())) {
      text.replace(at, token.size(), value);
    }
  }
  const std::size_t open = text.find('@');
  if (open != std::string::npos && text.find('@', open + 1) != std::string::npos) {
    throw std::runtime_error("unfilled template placeholder near: " + text.substr(open, 24));
  }
  return text;
}

/// How a grant's (domain, role) target is written. Both forms mean the
/// same conjunction: one AnyOf per attribute (the form mdac's own
/// serialiser emits for Target::require), or one AllOf holding both
/// Matches (the form an administrator writing XACML by hand tends to
/// use).
enum class GrantForm { kAnyOfs, kAllOf };

struct Templates {
  std::string grant_anyofs, grant_allof, domain_set, service_set, audited_leaf;

  static Templates load(const std::string& dir) {
    return {read_file(dir + "/grant_anyofs.xml.in"), read_file(dir + "/grant_allof.xml.in"),
            read_file(dir + "/domain_set.xml.in"), read_file(dir + "/service_set.xml.in"),
            read_file(dir + "/audited_leaf.xml.in")};
  }
};

struct PolicyDocument {
  std::string id;
  std::string xml;
};

/// A (domain, role) grant: `action` is permitted, every other action
/// denied.
inline PolicyDocument grant_document(const Templates& t, GrantForm form, const std::string& id,
                                     int domain, int role, int action) {
  return {id, fill(form == GrantForm::kAnyOfs ? t.grant_anyofs : t.grant_allof,
                   {{"ID", id},
                    {"DOMAIN", domain_name(domain)},
                    {"ROLE", role_name(role)},
                    {"ACTION", kActions[static_cast<std::size_t>(action)]}})};
}

// ---------------------------------------------------------------------
// Request specs and the closed-form oracle
// ---------------------------------------------------------------------

/// What a request is made of. `service` < 0 means the request names no
/// service (the flat-policy workloads).
struct RequestSpec {
  int domain = 0;
  int service = -1;
  int role = 0;
  int action = 0;
  std::string subject;
};

/// Builds the request the program receives. Call after the policies are
/// issued: the PAP interns the policy vocabulary ("service"), and a
/// request built before that carries the name in its side table.
inline mdac::core::RequestContext build_request(const RequestSpec& s) {
  namespace core = mdac::core;
  core::RequestContext req = core::RequestContext::make(
      s.subject, "res-" + std::to_string(s.domain), kActions[static_cast<std::size_t>(s.action)]);
  req.add(core::Category::kResource, core::attrs::kResourceDomain,
          core::AttributeValue(domain_name(s.domain)));
  req.add(core::Category::kSubject, core::attrs::kRole, core::AttributeValue(role_name(s.role)));
  if (s.service >= 0) {
    req.add(core::Category::kResource, "service", core::AttributeValue(service_name(s.service)));
  }
  return req;
}

/// Which (domain, role) slots hold a grant, and for which action
/// (-1 = no grant). The oracle of the flat-policy workloads: duplicate
/// grants of one slot all agree, so under the root deny-overrides a
/// request is Permit when its action is the granted one, Deny when it
/// is another, and NotApplicable when its slot holds no grant.
struct GrantTable {
  int domains = 0;
  int roles = 0;
  std::vector<std::int8_t> action;  // [domain * roles + role]

  GrantTable() = default;
  GrantTable(int d, int r) : domains(d), roles(r), action(static_cast<std::size_t>(d * r), -1) {}

  std::int8_t& at(int d, int r) { return action[static_cast<std::size_t>(d * roles + r)]; }
  std::int8_t at(int d, int r) const {
    if (d < 0 || d >= domains || r < 0 || r >= roles) return -1;
    return action[static_cast<std::size_t>(d * roles + r)];
  }

  Expect expect(const RequestSpec& s) const {
    const int granted = at(s.domain, s.role);
    if (granted < 0) return Expect::kNotApplicable;
    return granted == s.action ? Expect::kPermit : Expect::kDeny;
  }
};

/// The set-tree federation: `domains` root PolicySets, each with
/// `services` service PolicySets (deny-overrides), each with one audited
/// leaf per role in [0, roles). A leaf permits `read` with one audit
/// obligation and denies everything else.
struct SetTreeShape {
  int domains = 8;
  int services = 8;
  int roles = 6;

  Expect expect(const RequestSpec& s) const {
    if (s.domain < 0 || s.domain >= domains) return Expect::kNotApplicable;
    if (s.service < 0 || s.service >= services) return Expect::kNotApplicable;
    if (s.role < 0 || s.role >= roles) return Expect::kNotApplicable;
    return s.action == 0 ? Expect::kPermit : Expect::kDeny;
  }

  std::string root_id(int d) const { return domain_name(d) + ":set"; }
  std::string leaf_id(int d, int s, int r) const {
    return root_id(d) + ":" + service_name(s) + ":" + role_name(r);
  }
  /// The one obligation a Permit of `s` must carry.
  std::string audit_id(const RequestSpec& s) const {
    return leaf_id(s.domain, s.service, s.role) + ":audit";
  }

  std::vector<PolicyDocument> documents(const Templates& t) const {
    std::vector<PolicyDocument> docs;
    for (int d = 0; d < domains; ++d) {
      std::string services_xml;
      for (int s = 0; s < services; ++s) {
        std::string leaves_xml;
        for (int r = 0; r < roles; ++r) {
          leaves_xml += fill(t.audited_leaf, {{"ID", leaf_id(d, s, r)},
                                              {"ROLE", role_name(r)},
                                              {"ACTION", kActions[0]}});
        }
        services_xml += fill(t.service_set, {{"ID", root_id(d) + ":" + service_name(s)},
                                             {"SERVICE", service_name(s)},
                                             {"CHILDREN", leaves_xml}});
      }
      docs.push_back({root_id(d), fill(t.domain_set, {{"ID", root_id(d)},
                                                       {"DOMAIN", domain_name(d)},
                                                       {"CHILDREN", services_xml}})});
    }
    return docs;
  }
};

// ---------------------------------------------------------------------
// Popularity
// ---------------------------------------------------------------------

/// `length` draws from a Zipf(s) distribution over key indices
/// [0, keys): index i is the key of popularity rank i. Generators give
/// each rank its attributes from the seed, but tie the properties that
/// set a request's cost (NotApplicable or not, read or write) to the rank
/// itself, so every seed sends the same share of each kind of request.
inline std::vector<std::uint32_t> zipf_stream(std::mt19937_64& rng, std::size_t keys,
                                              double s, std::size_t length) {
  std::vector<double> cdf(keys);
  double total = 0;
  for (std::size_t i = 0; i < keys; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  std::uniform_real_distribution<double> u(0.0, total);
  std::vector<std::uint32_t> stream(length);
  for (auto& k : stream) {
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u(rng)) - cdf.begin());
    k = static_cast<std::uint32_t>(std::min(rank, keys - 1));
  }
  return stream;
}

/// `length` uniform draws over [0, keys).
inline std::vector<std::uint32_t> uniform_stream(std::mt19937_64& rng, std::size_t keys,
                                                 std::size_t length) {
  std::uniform_int_distribution<std::uint32_t> u(0, static_cast<std::uint32_t>(keys - 1));
  std::vector<std::uint32_t> stream(length);
  for (auto& k : stream) k = u(rng);
  return stream;
}

// ---------------------------------------------------------------------
// Churn plan
// ---------------------------------------------------------------------

enum class Mutation : std::uint8_t { kIssue, kUpdate, kWithdraw };

inline const char* to_string(Mutation m) {
  switch (m) {
    case Mutation::kIssue: return "issue";
    case Mutation::kUpdate: return "update";
    case Mutation::kWithdraw: return "withdraw";
  }
  return "?";
}

struct MutationStep {
  Mutation op = Mutation::kIssue;
  int domain = 0;
  int role = 0;
  int action = 0;  // the granted action after an issue/update
};

/// The administrator's whole schedule, fixed before the run, and the
/// grant table after every step: step k publishes snapshot version
/// `first_version + k`, so the answer for any decision follows from the
/// version it is stamped with.
struct ChurnPlan {
  GrantTable initial;
  std::vector<MutationStep> steps;
  std::vector<GrantTable> after;  // after[k] = table once steps[0..k] ran

  /// Exactly `initial_grants` of the domains x roles slots start issued.
  /// The steps then cycle update, withdraw, issue, so the number of
  /// issued grants stays within one of the start: the slots and actions
  /// come from the seed, the shape of the churn does not.
  static ChurnPlan make(std::mt19937_64& rng, int domains, int roles, int initial_grants,
                        std::size_t n_steps) {
    ChurnPlan plan;
    plan.initial = GrantTable(domains, roles);
    std::vector<int> slots(static_cast<std::size_t>(domains * roles));
    for (std::size_t i = 0; i < slots.size(); ++i) slots[i] = static_cast<int>(i);
    std::shuffle(slots.begin(), slots.end(), rng);
    std::uniform_int_distribution<int> action(0, static_cast<int>(kActions.size()) - 1);
    for (int i = 0; i < initial_grants; ++i) {
      plan.initial.action[static_cast<std::size_t>(slots[static_cast<std::size_t>(i)])] =
          static_cast<std::int8_t>(action(rng));
    }
    GrantTable table = plan.initial;
    auto pick = [&](bool issued) {
      std::vector<int> candidates;
      for (std::size_t i = 0; i < table.action.size(); ++i) {
        if ((table.action[i] >= 0) == issued) candidates.push_back(static_cast<int>(i));
      }
      std::uniform_int_distribution<std::size_t> u(0, candidates.size() - 1);
      return candidates[u(rng)];
    };
    for (std::size_t k = 0; k < n_steps; ++k) {
      MutationStep step;
      step.op = k % 3 == 0 ? Mutation::kUpdate : k % 3 == 1 ? Mutation::kWithdraw : Mutation::kIssue;
      const int slot = pick(step.op != Mutation::kIssue);
      step.domain = slot / roles;
      step.role = slot % roles;
      const int current = table.at(step.domain, step.role);
      step.action = step.op == Mutation::kWithdraw ? -1
                    : step.op == Mutation::kUpdate ? 1 - current  // flips the permitted action
                                                   : action(rng);
      table.at(step.domain, step.role) = static_cast<std::int8_t>(step.action);
      plan.steps.push_back(step);
      plan.after.push_back(table);
    }
    return plan;
  }
};

inline std::string churn_grant_id(int domain, int role) {
  return "grant:" + domain_name(domain) + ":" + role_name(role);
}

}  // namespace perfbench
