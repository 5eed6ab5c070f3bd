#include "server/app_client.hpp"

namespace rproxy::server {

util::Result<core::ChallengeRegistry::Challenge> AppClient::get_challenge(
    const PrincipalName& end_server) {
  return net::call<core::ChallengeRegistry::Challenge>(
      net_, self_, end_server, net::MsgType::kPresentChallengeRequest,
      net::MsgType::kPresentChallengeReply, core::ChallengeRequest{});
}

util::Result<util::Bytes> AppClient::invoke(
    const PrincipalName& end_server, const Operation& operation,
    const ObjectName& object, std::map<std::string, std::uint64_t> amounts,
    util::Bytes args, const ProofBuilder& proofs) {
  RPROXY_ASSIGN_OR_RETURN(core::ChallengeRegistry::Challenge challenge,
                          get_challenge(end_server));

  AppRequestPayload req;
  req.operation = operation;
  req.object = object;
  req.amounts = std::move(amounts);
  req.args = std::move(args);
  req.challenge_id = challenge.id;
  proofs(challenge.nonce, req.digest(), req);

  RPROXY_ASSIGN_OR_RETURN(
      AppReplyPayload reply,
      (net::call<AppReplyPayload>(net_, self_, end_server,
                                  net::MsgType::kAppRequest,
                                  net::MsgType::kAppReply, req)));
  return std::move(reply.result);
}

util::Result<util::Bytes> AppClient::invoke_with_proxy(
    const PrincipalName& end_server, const core::Proxy& proxy,
    const Operation& operation, const ObjectName& object,
    std::map<std::string, std::uint64_t> amounts, util::Bytes args) {
  return invoke(
      end_server, operation, object, std::move(amounts), std::move(args),
      [&](util::BytesView challenge, util::BytesView rdigest,
          AppRequestPayload& req) {
        core::PresentedCredential cred;
        cred.chain = proxy.chain;
        cred.proof = core::prove_bearer(proxy, challenge, end_server,
                                        clock_.now(), rdigest);
        req.credentials.push_back(std::move(cred));
      });
}

util::Result<util::Bytes> AppClient::invoke_timestamp(
    const PrincipalName& end_server, const Operation& operation,
    const ObjectName& object, std::map<std::string, std::uint64_t> amounts,
    util::Bytes args, const ProofBuilder& proofs) {
  AppRequestPayload req;
  req.operation = operation;
  req.object = object;
  req.amounts = std::move(amounts);
  req.args = std::move(args);
  req.challenge_id = 0;  // timestamp mode
  proofs({}, req.digest(), req);

  RPROXY_ASSIGN_OR_RETURN(
      AppReplyPayload reply,
      (net::call<AppReplyPayload>(net_, self_, end_server,
                                  net::MsgType::kAppRequest,
                                  net::MsgType::kAppReply, req)));
  return std::move(reply.result);
}

util::Result<util::Bytes> AppClient::invoke_with_proxy_timestamp(
    const PrincipalName& end_server, const core::Proxy& proxy,
    const Operation& operation, const ObjectName& object,
    std::map<std::string, std::uint64_t> amounts, util::Bytes args) {
  return invoke_timestamp(
      end_server, operation, object, std::move(amounts), std::move(args),
      [&](util::BytesView challenge, util::BytesView rdigest,
          AppRequestPayload& req) {
        core::PresentedCredential cred;
        cred.chain = proxy.chain;
        cred.proof = core::prove_bearer(proxy, challenge, end_server,
                                        clock_.now(), rdigest);
        req.credentials.push_back(std::move(cred));
      });
}

}  // namespace rproxy::server
