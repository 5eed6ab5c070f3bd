#include "accounting/clearing.hpp"

#include <algorithm>

#include "core/request.hpp"

namespace rproxy::accounting {

using util::ErrorCode;

AccountingClient::AccountingClient(net::SimNet& net, const util::Clock& clock,
                                   PrincipalName self,
                                   pki::IdentityCert identity_cert,
                                   crypto::SigningKeyPair identity_key)
    : net_(net),
      clock_(clock),
      self_(std::move(self)),
      identity_cert_(std::move(identity_cert)),
      identity_key_(std::move(identity_key)) {}

util::Result<core::ChallengeRegistry::Challenge>
AccountingClient::get_challenge_(const PrincipalName& server) {
  // Challenge fetches are pure reads — always safe to retry.
  return net::retry_call<core::ChallengeRegistry::Challenge>(
      net_, retry_, self_, server, net::MsgType::kPresentChallengeRequest,
      net::MsgType::kPresentChallengeReply, core::ChallengeRequest{});
}

core::PossessionProof AccountingClient::prove_(
    util::BytesView challenge_nonce, const PrincipalName& server,
    util::BytesView request_digest) const {
  return core::prove_delegate_pk(identity_cert_, identity_key_,
                                 challenge_nonce, server, clock_.now(),
                                 request_digest);
}

util::Result<AccountReplyPayload> AccountingClient::query(
    const PrincipalName& server, const std::string& account) {
  // Every operation retries as a whole challenge+request unit (the
  // challenge is single-use, so a fresh one is fetched per attempt).
  return net::with_retries(
      net_, retry_, [&]() -> util::Result<AccountReplyPayload> {
        RPROXY_ASSIGN_OR_RETURN(core::ChallengeRegistry::Challenge challenge,
                                get_challenge_(server));
        AccountQueryPayload req;
        req.challenge_id = challenge.id;
        req.account = account;
        req.identity = prove_(challenge.nonce, server,
                              core::request_digest("query", account, {}));
        return net::call<AccountReplyPayload>(net_, self_, server,
                                              net::MsgType::kAccountQuery,
                                              net::MsgType::kAccountReply,
                                              req);
      });
}

util::Status AccountingClient::transfer(const PrincipalName& server,
                                        const std::string& from_account,
                                        const std::string& to_account,
                                        const Currency& currency,
                                        std::uint64_t amount) {
  // Transfers carry no check number, so the server has no dedup key for
  // them: a lost reply leaves the outcome unknown and a blind retry could
  // move the money twice.  Only the challenge fetch retries.
  auto challenge = get_challenge_(server);
  RPROXY_RETURN_IF_ERROR(
      challenge.is_ok() ? util::Status::ok() : challenge.status());
  TransferPayload req;
  req.challenge_id = challenge.value().id;
  req.from_account = from_account;
  req.to_account = to_account;
  req.currency = currency;
  req.amount = amount;
  req.identity =
      prove_(challenge.value().nonce, server,
             core::request_digest("transfer", from_account + "->" + to_account,
                                  {{currency, amount}}));
  auto reply = net::call<TransferReplyPayload>(
      net_, self_, server, net::MsgType::kTransferRequest,
      net::MsgType::kTransferReply, req);
  return reply.is_ok() ? util::Status::ok() : reply.status();
}

util::Result<CertifyReplyPayload> AccountingClient::certify(
    const PrincipalName& server, const std::string& account,
    const PrincipalName& payee, const Currency& currency,
    std::uint64_t amount, std::uint64_t check_number,
    const PrincipalName& target_server, util::TimePoint hold_until) {
  // Retried as a unit: the server's certify dedup table (keyed on payor +
  // check number) replays the original certification if a lost reply's
  // hold is already in place.
  return net::with_retries(
      net_, retry_, [&]() -> util::Result<CertifyReplyPayload> {
        RPROXY_ASSIGN_OR_RETURN(core::ChallengeRegistry::Challenge challenge,
                                get_challenge_(server));
        CertifyPayload req;
        req.challenge_id = challenge.id;
        req.account = account;
        req.payee = payee;
        req.currency = currency;
        req.amount = amount;
        req.check_number = check_number;
        req.target_server = target_server;
        req.hold_until = hold_until;
        req.identity = prove_(challenge.nonce, server,
                              core::request_digest("certify", account,
                                                   {{currency, amount}}));
        return net::call<CertifyReplyPayload>(net_, self_, server,
                                              net::MsgType::kCertifyRequest,
                                              net::MsgType::kCertifyReply,
                                              req);
      });
}

util::Result<DepositReplyPayload> AccountingClient::deposit(
    const PrincipalName& server, Check endorsed_check,
    const std::string& collect_account, std::uint64_t amount) {
  // Retried as a unit: if a lost reply's deposit actually cleared, the
  // server's deposit dedup table (keyed on the check's grantor + number)
  // replays the original reply instead of settling the check twice.
  return net::with_retries(
      net_, retry_, [&]() -> util::Result<DepositReplyPayload> {
        RPROXY_ASSIGN_OR_RETURN(core::ChallengeRegistry::Challenge challenge,
                                get_challenge_(server));
        DepositPayload req;
        req.challenge_id = challenge.id;
        req.check = endorsed_check;
        req.collect_account = collect_account;
        req.amount = amount;
        req.identity =
            prove_(challenge.nonce, server,
                   core::request_digest("deposit", collect_account,
                                        {{req.check.currency, amount}}));
        return net::call<DepositReplyPayload>(net_, self_, server,
                                              net::MsgType::kCheckDeposit,
                                              net::MsgType::kDepositReply,
                                              req);
      });
}

util::Result<DepositReplyPayload> AccountingClient::endorse_and_deposit(
    const PrincipalName& server, const Check& check,
    const std::string& collect_account) {
  RPROXY_ASSIGN_OR_RETURN(
      Check endorsed,
      endorse_check(check, self_, identity_key_, server, clock_.now()));
  return deposit(server, std::move(endorsed), collect_account, check.amount);
}

net::Envelope AccountingClient::challenge_request(
    const PrincipalName& server) const {
  net::Envelope e;
  e.from = self_;
  e.to = server;
  e.type = net::MsgType::kPresentChallengeRequest;
  e.payload = wire::encode_to_bytes(core::ChallengeRequest{});
  return e;
}

util::Result<core::ChallengeRegistry::Challenge>
AccountingClient::read_challenge_reply(const net::Envelope& reply) {
  RPROXY_RETURN_IF_ERROR(
      net::expect_type(reply, net::MsgType::kPresentChallengeReply));
  return wire::decode_from_bytes<core::ChallengeRegistry::Challenge>(
      reply.payload);
}

util::Result<net::Envelope> AccountingClient::deposit_request(
    const PrincipalName& server, const Check& check,
    const std::string& collect_account,
    const core::ChallengeRegistry::Challenge& challenge) const {
  RPROXY_ASSIGN_OR_RETURN(
      Check endorsed,
      endorse_check(check, self_, identity_key_, server, clock_.now()));
  DepositPayload req;
  req.challenge_id = challenge.id;
  req.check = std::move(endorsed);
  req.collect_account = collect_account;
  req.amount = check.amount;
  req.identity =
      prove_(challenge.nonce, server,
             core::request_digest("deposit", collect_account,
                                  {{req.check.currency, req.amount}}));
  net::Envelope e;
  e.from = self_;
  e.to = server;
  e.type = net::MsgType::kCheckDeposit;
  e.payload = wire::encode_to_bytes(req);
  return e;
}

util::Result<DepositReplyPayload> AccountingClient::read_deposit_reply(
    const net::Envelope& reply) {
  RPROXY_RETURN_IF_ERROR(
      net::expect_type(reply, net::MsgType::kDepositReply));
  return wire::decode_from_bytes<DepositReplyPayload>(reply.payload);
}

util::Result<Check> AccountingClient::buy_cashier_check(
    const PrincipalName& server, const std::string& account,
    const PrincipalName& payee, const Currency& currency,
    std::uint64_t amount) {
  // Like transfer: the bank mints a fresh check number per purchase, so
  // there is no idempotency key — only the challenge fetch retries.
  RPROXY_ASSIGN_OR_RETURN(core::ChallengeRegistry::Challenge challenge,
                          get_challenge_(server));
  CashierPayload req;
  req.challenge_id = challenge.id;
  req.account = account;
  req.payee = payee;
  req.currency = currency;
  req.amount = amount;
  req.identity = prove_(challenge.nonce, server,
                        core::request_digest("cashier", account,
                                             {{currency, amount}}));
  RPROXY_ASSIGN_OR_RETURN(
      CashierReplyPayload reply,
      (net::call<CashierReplyPayload>(net_, self_, server,
                                      net::MsgType::kCashierRequest,
                                      net::MsgType::kCashierReply, req)));
  return std::move(reply.check);
}

util::Status verify_certification(const core::ProxyVerifier& verifier,
                                  const core::ProxyChain& certification,
                                  const Check& check,
                                  const PrincipalName& accounting_server,
                                  const PrincipalName& presenter,
                                  util::TimePoint now) {
  RPROXY_ASSIGN_OR_RETURN(core::VerifiedProxy verified,
                          verifier.verify_chain(certification, now));
  if (verified.grantor != accounting_server) {
    return util::fail(ErrorCode::kPermissionDenied,
                      "certification not granted by the drawee server");
  }
  core::RequestContext ctx;
  ctx.end_server = verifier.config().server_name;
  ctx.operation = "assert";
  ctx.object = certified_check_object(check.check_number);
  ctx.now = now;
  ctx.effective_identities = {presenter};
  ctx.grantor = verified.grantor;
  ctx.credential_expiry = verified.expires_at;
  return verified.effective_restrictions.evaluate(ctx);
}

}  // namespace rproxy::accounting
