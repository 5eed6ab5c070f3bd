// Client-side driver for the application protocol.
//
// Wraps the two round trips of a presented operation: fetch a single-use
// challenge, then send the request with possession proofs bound to that
// challenge and to the request digest.
#pragma once

#include "core/presentation.hpp"
#include "server/end_server.hpp"

namespace rproxy::server {

class AppClient {
 public:
  AppClient(net::SimNet& net, const util::Clock& clock, PrincipalName self)
      : net_(net), clock_(clock), self_(std::move(self)) {}

  /// Fetches a fresh challenge from `end_server`.
  [[nodiscard]] util::Result<core::ChallengeRegistry::Challenge>
  get_challenge(const PrincipalName& end_server);

  /// How the caller supplies proofs: invoked once the challenge and request
  /// digest are known; fills the credential/group/identity fields.
  using ProofBuilder = std::function<void(
      util::BytesView challenge, util::BytesView request_digest,
      AppRequestPayload& request)>;

  /// Runs the full presented-operation flow and returns the app result.
  [[nodiscard]] util::Result<util::Bytes> invoke(
      const PrincipalName& end_server, const Operation& operation,
      const ObjectName& object,
      std::map<std::string, std::uint64_t> amounts, util::Bytes args,
      const ProofBuilder& proofs);

  /// Common case: one bearer proxy backs the operation.
  [[nodiscard]] util::Result<util::Bytes> invoke_with_proxy(
      const PrincipalName& end_server, const core::Proxy& proxy,
      const Operation& operation, const ObjectName& object,
      std::map<std::string, std::uint64_t> amounts = {},
      util::Bytes args = {});

  /// Timestamp-mode presentation (§2's "signed or encrypted timestamp"):
  /// skips the challenge round trip — 2 messages instead of 4 — relying on
  /// proof freshness plus the server's replay cache.
  [[nodiscard]] util::Result<util::Bytes> invoke_timestamp(
      const PrincipalName& end_server, const Operation& operation,
      const ObjectName& object,
      std::map<std::string, std::uint64_t> amounts, util::Bytes args,
      const ProofBuilder& proofs);

  /// Timestamp-mode counterpart of invoke_with_proxy.
  [[nodiscard]] util::Result<util::Bytes> invoke_with_proxy_timestamp(
      const PrincipalName& end_server, const core::Proxy& proxy,
      const Operation& operation, const ObjectName& object,
      std::map<std::string, std::uint64_t> amounts = {},
      util::Bytes args = {});

  [[nodiscard]] const PrincipalName& self() const { return self_; }
  [[nodiscard]] net::SimNet& net() { return net_; }
  [[nodiscard]] const util::Clock& clock() const { return clock_; }

 private:
  net::SimNet& net_;
  const util::Clock& clock_;
  PrincipalName self_;
};

}  // namespace rproxy::server
