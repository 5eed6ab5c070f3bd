#include "server/end_server.hpp"

#include <algorithm>

#include "core/request.hpp"
#include "core/revocation.hpp"
#include "crypto/random.hpp"

namespace rproxy::server {

using util::ErrorCode;

void AppRequestPayload::encode(wire::Encoder& enc) const {
  enc.str(operation);
  enc.str(object);
  enc.u32(static_cast<std::uint32_t>(amounts.size()));
  for (const auto& [currency, amount] : amounts) {
    enc.str(currency);
    enc.u64(amount);
  }
  enc.bytes(args);
  enc.u64(challenge_id);
  enc.seq(credentials,
          [](wire::Encoder& e, const core::PresentedCredential& c) {
            c.encode(e);
          });
  enc.seq(group_credentials,
          [](wire::Encoder& e, const core::PresentedCredential& c) {
            c.encode(e);
          });
  enc.boolean(identity.has_value());
  if (identity.has_value()) identity->encode(enc);
}

AppRequestPayload AppRequestPayload::decode(wire::Decoder& dec) {
  AppRequestPayload p;
  p.operation = dec.str();
  p.object = dec.str();
  const std::uint32_t n = dec.u32();
  for (std::uint32_t i = 0; i < n && dec.ok(); ++i) {
    std::string currency = dec.str();
    p.amounts[currency] = dec.u64();
  }
  p.args = dec.bytes();
  p.challenge_id = dec.u64();
  p.credentials = dec.seq<core::PresentedCredential>([](wire::Decoder& d) {
    return core::PresentedCredential::decode(d);
  });
  p.group_credentials =
      dec.seq<core::PresentedCredential>([](wire::Decoder& d) {
        return core::PresentedCredential::decode(d);
      });
  if (dec.boolean()) {
    p.identity = core::PossessionProof::decode(dec);
  }
  return p;
}

util::Bytes AppRequestPayload::digest() const {
  return core::request_digest(operation, object, amounts);
}

EndServer::EndServer(Config config)
    : config_(std::move(config)),
      verifier_(core::ProxyVerifier::Config{
          .server_name = config_.name,
          .server_key = config_.server_key,
          .resolver = config_.resolver,
          .pk_root = config_.pk_root,
          .replay_cache = &replay_cache_,
          .verify_cache_capacity = config_.verify_cache_capacity,
          .verify_cache_ttl = config_.verify_cache_ttl,
          .revocation = config_.revocation,
      }),
      challenges_(config_.challenge_ttl) {
  acl_.set_revocation(config_.revocation);
}

std::size_t EndServer::revoke_grantor(const PrincipalName& grantor) {
  const std::size_t removed = acl_.remove_principal(grantor);
  if (config_.revocation != nullptr) {
    // The cutoff (not just the ACL edit) is what kills chains whose root
    // does not appear on our ACL by name — e.g. symmetric proxies from a
    // grantor the ACL covers via a group.
    config_.revocation->revoke_grants_before(grantor,
                                             config_.clock->now());
  }
  return removed;
}

net::Envelope EndServer::handle(const net::Envelope& request) {
  switch (request.type) {
    case net::MsgType::kPresentChallengeRequest:
      return handle_challenge_(request);
    case net::MsgType::kAppRequest:
      return handle_app_(request);
    default:
      return net::make_error_reply(
          request, util::fail(ErrorCode::kProtocolError,
                              "end-server cannot handle this message type"));
  }
}

bool EndServer::may_block(net::MsgType /*type*/) const {
  return audit_.has_sink();
}

net::Envelope EndServer::handle_challenge_(const net::Envelope& request) {
  return net::make_reply(request, net::MsgType::kPresentChallengeReply,
                         challenges_.issue(config_.clock->now()));
}

net::Envelope EndServer::handle_app_(const net::Envelope& request) {
  auto parsed = wire::decode_from_bytes<AppRequestPayload>(request.payload);
  if (!parsed.is_ok()) return net::make_error_reply(request, parsed.status());
  auto reply = process_(parsed.value());
  if (!reply.is_ok()) return net::make_error_reply(request, reply.status());
  return net::make_reply(request, net::MsgType::kAppReply, reply.value());
}

util::Result<AppReplyPayload> EndServer::process_(
    const AppRequestPayload& req) {
  const util::TimePoint now = config_.clock->now();
  // Two presentation styles (§2: "a signed or encrypted timestamp or
  // server challenge"):
  //  * challenge mode — the proof binds a single-use nonce we issued;
  //  * timestamp mode (challenge_id == 0) — no extra round trip; proofs
  //    must be fresh and are remembered in the replay cache until they
  //    age out.  The cache's expiry comes from proof.timestamp, which the
  //    blob's MAC or signature covers: a copy with a shifted timestamp
  //    misses the cache and then fails verification.  Freshness is
  //    checked BEFORE the cache, since nothing has checked the timestamp
  //    yet: a forged proof dated a year ahead would otherwise pin its
  //    entry for a year.
  util::Bytes challenge;
  if (req.challenge_id != 0) {
    RPROXY_ASSIGN_OR_RETURN(challenge,
                            challenges_.take(req.challenge_id, now));
  } else {
    const util::Duration max_skew = verifier_.config().max_skew;
    const auto replay_guard = [&](const core::PossessionProof& proof) {
      const util::Duration skew = proof.timestamp > now
                                      ? proof.timestamp - now
                                      : now - proof.timestamp;
      if (skew > max_skew) {
        return util::fail(ErrorCode::kExpired, "possession proof not fresh");
      }
      return replay_cache_.check_and_insert(
          proof.blob, proof.timestamp + 2 * config_.challenge_ttl, now);
    };
    for (const core::PresentedCredential& cred : req.credentials) {
      RPROXY_RETURN_IF_ERROR(replay_guard(cred.proof));
    }
    for (const core::PresentedCredential& cred : req.group_credentials) {
      RPROXY_RETURN_IF_ERROR(replay_guard(cred.proof));
    }
    if (req.identity.has_value()) {
      RPROXY_RETURN_IF_ERROR(replay_guard(*req.identity));
    }
  }
  const util::Bytes rdigest = req.digest();

  AuditRecord record;
  record.time = now;
  record.operation = req.operation;
  record.object = req.object;

  // A helper so every denial is audited uniformly.
  const auto deny = [&](util::Status status) -> util::Result<AppReplyPayload> {
    record.allowed = false;
    record.detail = status.to_string();
    audit_.append(record);
    return status;
  };

  // 1-3. Verify chains, possession proofs and group assertions.
  auto evaluated = authz::evaluate_credentials(
      verifier_, req.credentials, req.group_credentials, challenge, rdigest,
      now);
  if (!evaluated.is_ok()) return deny(evaluated.status());
  authz::EvaluatedCredentials creds = std::move(evaluated).value();

  // Optional bare identity (direct ACL users, §3.5).
  if (req.identity.has_value()) {
    auto who =
        verifier_.verify_identity(*req.identity, challenge, rdigest, now);
    if (!who.is_ok()) return deny(who.status());
    for (const PrincipalName& id : who.value()) {
      if (std::find(creds.identities.begin(), creds.identities.end(), id) ==
          creds.identities.end()) {
        creds.identities.push_back(id);
      }
    }
  }

  record.identities = creds.identities;
  for (const authz::VerifiedCredential& cred : creds.credentials) {
    for (const PrincipalName& via : cred.proxy.audit_trail) {
      record.via.push_back(via);
    }
  }

  // 4. ACL.
  const authz::AuthorityContext authority = creds.authority();
  auto entry = acl_.match(authority, req.operation, req.object);
  if (!entry.is_ok()) return deny(entry.status());
  record.authority = entry.value()->principals.front();

  // 5. Restrictions: every presented chain's effective set must permit the
  //    request (restrictions are additive across the credentials backing
  //    it), and so must the ACL entry's own restrictions.
  for (const authz::VerifiedCredential& cred : creds.credentials) {
    core::RequestContext ctx;
    ctx.end_server = config_.name;
    ctx.operation = req.operation;
    ctx.object = req.object;
    ctx.amounts = req.amounts;
    ctx.now = now;
    ctx.effective_identities = creds.identities;
    ctx.asserted_groups = creds.asserted_groups;
    ctx.grantor = cred.proxy.grantor;
    ctx.credential_expiry = cred.proxy.expires_at;
    ctx.accept_once = &accept_once_;
    util::Status st = cred.proxy.effective_restrictions.evaluate(ctx);
    if (!st.is_ok()) return deny(std::move(st));
  }
  {
    core::RequestContext ctx;
    ctx.end_server = config_.name;
    ctx.operation = req.operation;
    ctx.object = req.object;
    ctx.amounts = req.amounts;
    ctx.now = now;
    ctx.effective_identities = creds.identities;
    ctx.asserted_groups = creds.asserted_groups;
    ctx.grantor = record.authority;
    ctx.credential_expiry = now + config_.challenge_ttl;
    ctx.accept_once = &accept_once_;
    util::Status st = entry.value()->restrictions.evaluate(ctx);
    if (!st.is_ok()) return deny(std::move(st));
  }

  // 6. Perform.
  AuthorizedRequest info;
  info.credentials = std::move(creds);
  info.entry = entry.value();
  info.authority = record.authority;
  auto result = perform(req, info);
  if (!result.is_ok()) return deny(result.status());

  record.allowed = true;
  record.detail = "ok";
  audit_.append(record);
  return AppReplyPayload{std::move(result).value()};
}

}  // namespace rproxy::server
