// Metered end-server: the §4 payment flow packaged as a server mixin.
//
// "Authorization depends on accounting when a server verifies that a
// client has been allocated sufficient resources to perform an operation."
// A MeteredServer prices each operation in a currency, requires the
// request to carry payment — a check for the price, plus (optionally) its
// certification by the drawee bank — verifies the certification OFFLINE
// before performing, and banks the check afterwards (Fig 5's E1).
#pragma once

#include <atomic>
#include <mutex>
#include <set>

#include "accounting/clearing.hpp"
#include "server/end_server.hpp"

namespace rproxy::server {

/// Payment attached to a metered request (rides in AppRequestPayload.args
/// alongside the operation's own arguments).
struct PaymentEnvelope {
  accounting::Check check;
  /// Present when the server demands guaranteed funds.
  std::optional<core::ProxyChain> certification;
  /// The operation's own arguments.
  util::Bytes inner_args;

  void encode(wire::Encoder& enc) const;
  static PaymentEnvelope decode(wire::Decoder& dec);
};

/// An end-server that charges per operation.
class MeteredServer : public EndServer {
 public:
  struct MeteredConfig {
    EndServer::Config base;
    /// Price list: operation -> (currency, amount).  Unlisted operations
    /// are free.
    std::map<Operation, std::pair<accounting::Currency, std::uint64_t>>
        prices;
    /// Require certified checks (guaranteed funds) instead of trusting
    /// uncertified paper.
    bool require_certification = true;
    /// This server's own bank and collection account, used to deposit
    /// received checks after service.
    PrincipalName bank;
    std::string collect_account;
    /// Client for the deposits (the server's accounting identity).
    accounting::AccountingClient* accounting_client = nullptr;
  };

  explicit MeteredServer(MeteredConfig config);

  /// A paid request deposits its check through the accounting client, a
  /// round trip to the bank.
  [[nodiscard]] bool may_block(net::MsgType type) const override {
    return type == net::MsgType::kAppRequest || EndServer::may_block(type);
  }

  [[nodiscard]] std::uint64_t payments_banked() const {
    return payments_banked_.load();
  }
  [[nodiscard]] std::uint64_t payments_rejected() const {
    return payments_rejected_.load();
  }

 protected:
  /// Subclasses implement the actual (paid) operation.
  [[nodiscard]] virtual util::Result<util::Bytes> perform_paid(
      const AppRequestPayload& request, const AuthorizedRequest& info,
      util::BytesView inner_args) = 0;

  util::Result<util::Bytes> perform(const AppRequestPayload& request,
                                    const AuthorizedRequest& info) final;

 private:
  MeteredConfig config_;
  /// Atomic: perform() runs on concurrent transport threads and the price
  /// list is the only other state (read-only after construction).
  std::atomic<std::uint64_t> payments_banked_{0};
  std::atomic<std::uint64_t> payments_rejected_{0};
  /// Payee-side accept-once (§7.7): the bank answers a duplicate deposit
  /// idempotently, so deposit success no longer proves NEW funds arrived —
  /// this server must itself refuse a check it already banked, or one
  /// payment would buy two operations.  Reserved before performing (so
  /// concurrent duplicates race to a single winner), released on bounce.
  std::mutex banked_mutex_;
  std::set<std::pair<PrincipalName, std::uint64_t>> banked_checks_;
};

/// A metered echo service used by tests and the examples: operation
/// "compute" costs whatever the price list says and echoes its arguments.
class MeteredComputeServer final : public MeteredServer {
 public:
  using MeteredServer::MeteredServer;

 protected:
  util::Result<util::Bytes> perform_paid(const AppRequestPayload& request,
                                         const AuthorizedRequest& info,
                                         util::BytesView inner_args) override;
};

}  // namespace rproxy::server
