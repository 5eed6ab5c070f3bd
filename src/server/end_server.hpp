// Generic proxy-verifying application server.
//
// Ties everything together on the server side of the model:
//   1. issues single-use challenges (the "authentication exchange" of §2);
//   2. verifies every presented chain and possession proof;
//   3. derives asserted group memberships (§3.3);
//   4. consults its local ACL — entries may name users, proxy grantors,
//      authorization servers, or groups (§3.5), including compound entries
//      requiring concurrence;
//   5. enforces every restriction of every presented chain plus the
//      matched ACL entry's own restrictions;
//   6. performs the operation (subclass hook) and writes an audit record.
#pragma once

#include "authz/credential_eval.hpp"
#include "core/challenge_registry.hpp"
#include "server/audit_log.hpp"

namespace rproxy::server {

/// Application request payload.
struct AppRequestPayload {
  Operation operation;
  ObjectName object;
  /// Resource consumption (e.g. {"pages", 3}); evaluated against quota
  /// restrictions.
  std::map<std::string, std::uint64_t> amounts;
  /// Operation-specific arguments (file contents, job body, ...).
  util::Bytes args;
  /// Which outstanding challenge the proofs are bound to.
  std::uint64_t challenge_id = 0;
  /// Main credentials: proxies whose rights back the request.  More than
  /// one implements concurrence (§3.5).
  std::vector<core::PresentedCredential> credentials;
  /// Group proxies asserting memberships (§3.3).
  std::vector<core::PresentedCredential> group_credentials;
  /// Personal authentication with no proxy (direct ACL users).  Optional.
  std::optional<core::PossessionProof> identity;

  void encode(wire::Encoder& enc) const;
  static AppRequestPayload decode(wire::Decoder& dec);

  /// The digest possession proofs must bind (client and server compute it
  /// identically).
  [[nodiscard]] util::Bytes digest() const;
};

/// Application reply payload.
struct AppReplyPayload {
  util::Bytes result;

  void encode(wire::Encoder& enc) const { enc.bytes(result); }
  static AppReplyPayload decode(wire::Decoder& dec) {
    return AppReplyPayload{dec.bytes()};
  }
};

/// What a subclass's perform() learns about an authorized request.
struct AuthorizedRequest {
  authz::EvaluatedCredentials credentials;
  /// The ACL entry that authorized the request.
  const authz::AclEntry* entry = nullptr;
  /// Authority recorded in the audit log (first matched entry principal).
  PrincipalName authority;
};

class EndServer : public net::Node {
 public:
  struct Config {
    PrincipalName name;
    /// Long-term Kerberos key; required to accept symmetric credentials.
    std::optional<crypto::SymmetricKey> server_key;
    /// Identity-key resolver; required to accept public-key credentials.
    const core::KeyResolver* resolver = nullptr;
    std::optional<crypto::VerifyKey> pk_root;
    const util::Clock* clock = nullptr;
    /// Unclaimed challenges expire after this long.
    util::Duration challenge_ttl = 2 * util::kMinute;
    /// Verified-chain cache (see core::ProxyVerifier::Config); 0 disables.
    std::size_t verify_cache_capacity = 1024;
    util::Duration verify_cache_ttl = 5 * util::kMinute;
    /// Shared revocation registry: verification checks it, local ACL edits
    /// and revoke_grantor report into it.  nullptr disables revocation.
    core::RevocationRegistry* revocation = nullptr;
  };

  explicit EndServer(Config config);

  /// Local access-control list (§3.5).  Edit at setup time only: handle()
  /// reads it without a lock, so mutating while requests are in flight is
  /// a race.  The per-request state (challenges, replay caches, audit log)
  /// is internally synchronized; see DESIGN.md "Concurrency model".
  [[nodiscard]] authz::Acl& acl() { return acl_; }
  [[nodiscard]] const authz::Acl& acl() const { return acl_; }

  /// Local revocation of a grantor (§3.1): removes every ACL entry naming
  /// it AND kills all grants it issued before now, so chains rooted at the
  /// grantor are rejected on their very next presentation — warm verify
  /// cache included.  Returns the number of ACL entries removed.  Without
  /// Config::revocation only the ACL half happens.
  std::size_t revoke_grantor(const PrincipalName& grantor);

  [[nodiscard]] AuditLog& audit() { return audit_; }
  [[nodiscard]] core::AcceptOnceCache& accept_once() { return accept_once_; }
  [[nodiscard]] const PrincipalName& name() const { return config_.name; }
  [[nodiscard]] const core::ProxyVerifier& verifier() const {
    return verifier_;
  }

  net::Envelope handle(const net::Envelope& request) override;

  /// Issuing a challenge, verifying a presentation and performing it
  /// wait on nothing, so a transport may run them on its reading thread;
  /// but an attached audit sink writes (and under kBatch fsyncs) inside
  /// every append.
  [[nodiscard]] bool may_block(net::MsgType type) const override;

 protected:
  /// Performs an authorized operation.  The request has already passed
  /// chain verification, possession, ACL, and restriction checks.
  [[nodiscard]] virtual util::Result<util::Bytes> perform(
      const AppRequestPayload& request, const AuthorizedRequest& info) = 0;

 private:
  [[nodiscard]] net::Envelope handle_challenge_(const net::Envelope& request);
  [[nodiscard]] net::Envelope handle_app_(const net::Envelope& request);
  [[nodiscard]] util::Result<AppReplyPayload> process_(
      const AppRequestPayload& req);

  Config config_;
  core::ProxyVerifier verifier_;
  kdc::ReplayCache replay_cache_;
  core::AcceptOnceCache accept_once_;
  authz::Acl acl_;
  AuditLog audit_;
  core::ChallengeRegistry challenges_;
};

}  // namespace rproxy::server
