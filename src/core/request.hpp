// Request context: everything a restriction needs to know to decide.
//
// The verifier builds one RequestContext per presented operation and feeds
// it to RestrictionSet::evaluate.  Fields the request does not involve stay
// empty (e.g. no amounts for a pure read), and restrictions that do not
// reference them pass trivially.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/accept_once_cache.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/names.hpp"

namespace rproxy::core {

struct RequestContext {
  /// The server evaluating the request (matched by issued-for and
  /// limit-restriction).
  PrincipalName end_server;

  /// Operation and object of the request (matched by authorized).
  Operation operation;
  ObjectName object;

  /// Resource amounts this request consumes, per currency (matched by
  /// quota).  Absent currency means zero consumption of it.
  std::map<std::string, std::uint64_t> amounts;

  /// Evaluation time.
  util::TimePoint now = 0;

  /// Identities the presenter has proven (personal authentication),
  /// PLUS principals who granted valid additional delegation proxies to the
  /// presenter — the paper's "or by someone with a suitable additional
  /// proxy issued by a named delegate" (§7.1).  Matched by grantee.
  std::vector<PrincipalName> effective_identities;

  /// Group memberships proven via accompanying group proxies (§7.2).
  std::vector<GroupName> asserted_groups;

  /// When this credential IS a group proxy being used to assert membership,
  /// the group being asserted (matched by group-membership, §7.6).
  std::optional<GroupName> asserting_group;

  /// Root grantor of the chain under evaluation; scopes accept-once ids.
  PrincipalName grantor;

  /// Expiry of the credential under evaluation; accept-once identifiers are
  /// remembered until then (§7.7).
  util::TimePoint credential_expiry = 0;

  /// End-server's accept-once cache; nullptr disables accept-once
  /// enforcement (a server without the cache must reject such proxies, and
  /// evaluate() does exactly that).
  AcceptOnceCache* accept_once = nullptr;
};

/// Digest binding a request's semantic content (operation, object,
/// amounts) into possession proofs, so a proof cannot be replayed for a
/// different operation.  Must be computed identically by client and server.
[[nodiscard]] util::Bytes request_digest(
    const Operation& operation, const ObjectName& object,
    const std::map<std::string, std::uint64_t>& amounts);

}  // namespace rproxy::core
