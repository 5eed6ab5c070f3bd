#include "driver/workload.hpp"

#include <cstring>
#include <thread>

#include "accounting/clearing.hpp"
#include "authz/capability.hpp"
#include "core/request.hpp"
#include "net/rpc.hpp"
#include "net/tcp_transport.hpp"

namespace e2e {

namespace {

using rp::util::ErrorCode;
using rp::util::Status;

constexpr const char* kUsd = "usd";
/// Checks live five minutes, as a payee would write them.
constexpr rp::util::Duration kCheckLifetime = 5 * rp::util::kMinute;

/// Runs fn(i) for i in [0, n) on `threads` threads.
template <typename Fn>
void parallel_for(std::size_t n, unsigned threads, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

[[noreturn]] void gen_failed(const std::string& what, const Status& status) {
  std::fprintf(stderr, "error: input generation failed: %s: %s\n",
               what.c_str(), status.to_string().c_str());
  std::exit(4);
}

}  // namespace

Request make_request(const rp::net::Envelope& e) {
  rp::wire::Encoder enc;
  rp::net::encode_envelope(enc, e);
  const rp::util::BytesView body = enc.view();
  Request r;
  r.frame.resize(4 + body.size());
  const auto len = static_cast<std::uint32_t>(body.size());
  r.frame[0] = static_cast<std::uint8_t>(len >> 24);
  r.frame[1] = static_cast<std::uint8_t>(len >> 16);
  r.frame[2] = static_cast<std::uint8_t>(len >> 8);
  r.frame[3] = static_cast<std::uint8_t>(len);
  std::copy(body.begin(), body.end(), r.frame.begin() + 4);
  r.key = envelope_key(e);
  return r;
}

Workload::Workload(const Plan& plan, Deployment& deployment)
    : plan_(plan), d_(deployment) {}

StepResult Workload::failed_(const rp::net::Envelope& reply,
                             const char* what) {
  std::lock_guard lock(error_mutex_);
  if (first_error_.empty()) {
    first_error_ = std::string(what) + ": " +
                   (reply.type == rp::net::MsgType::kError
                        ? rp::net::status_of(reply).to_string()
                        : std::string(rp::net::msg_type_name(reply.type)));
  }
  return StepResult{true, false, {}};
}

const PlannedOp& Workload::op_(Phase phase, std::size_t i) const {
  return phase == Phase::kClosed ? plan_.closed_ops[i] : plan_.open_ops[i];
}

OpKind Workload::kind(Phase phase, std::size_t i) const {
  return op_(phase, i).kind;
}

Request Workload::challenge_request_(const std::string& from,
                                     const std::string& to) const {
  rp::net::Envelope e;
  e.from = from;
  e.to = to;
  e.type = rp::net::MsgType::kPresentChallengeRequest;
  return make_request(e);
}

void Workload::generate(unsigned threads) {
  if (plan_.workload == "authz") {
    generate_authz_(threads);
  } else if (plan_.workload == "clearing") {
    generate_clearing_(threads);
  }
  for (Phase phase : {Phase::kClosed, Phase::kOpen}) {
    std::vector<Request>& out = first_[static_cast<int>(phase)];
    if (!out.empty()) continue;
    const std::size_t n = phase == Phase::kClosed ? plan_.closed_ops.size()
                                                  : plan_.open_ops.size();
    out.resize(n);
    parallel_for(n, threads, [&](std::size_t i) {
      const PlannedOp& op = op_(phase, i);
      out[i] = plan_.workload == "ledger"
                   ? challenge_request_(owner_name(op.a % kLedgerPrincipals),
                                        kBank)
                   : challenge_request_(payee_name(op.b), kBankB);
    });
  }
}

void Workload::generate_authz_(unsigned threads) {
  const rp::util::TimePoint now = d_.clock.now();
  // One ticket for the file server per user (the grantor's credentials).
  std::vector<rp::kdc::KdcClient> clients;
  std::vector<rp::kdc::Credentials> creds;
  for (std::uint32_t u = 0; u < kAuthzUsers; ++u) {
    const Identity& id = d_.identity(user_name(u));
    clients.emplace_back(d_.net, d_.clock, id.name, id.krb_key, "kdc");
    auto tgt = clients.back().authenticate(8 * rp::util::kHour);
    if (!tgt.is_ok()) gen_failed("TGT for " + id.name, tgt.status());
    auto ticket = clients.back().get_ticket(tgt.value(), kFileServer,
                                            8 * rp::util::kHour);
    if (!ticket.is_ok()) gen_failed("ticket for " + id.name, ticket.status());
    creds.push_back(std::move(ticket).value());
  }

  chains_.resize(plan_.chains.size());
  files_.resize(plan_.chains.size());
  parallel_for(plan_.chains.size(), threads, [&](std::size_t c) {
    const ChainSpec& spec = plan_.chains[c];
    const auto file = static_cast<std::uint32_t>(c);
    files_[c] = file_contents(plan_, file);
    std::vector<rp::core::ObjectRights> rights = {
        rp::core::ObjectRights{file_name(file), {"read"}}};
    rp::core::Proxy proxy =
        spec.kerberos
            ? rp::authz::make_capability_krb(clients[spec.user],
                                             creds[spec.user],
                                             std::move(rights), now)
            : rp::authz::make_capability_pk(
                  user_name(spec.user), d_.identity(user_name(spec.user)).key,
                  kFileServer, std::move(rights), now, rp::util::kHour);
    for (std::uint32_t hop = 1; hop < spec.depth; ++hop) {
      auto longer = rp::core::extend_bearer(proxy, {}, now, rp::util::kHour);
      if (!longer.is_ok()) gen_failed("cascade link", longer.status());
      proxy = std::move(longer).value();
    }
    chains_[c] = std::move(proxy);
  });

  // Timestamp-mode presentations: a fresh bearer proof per read.
  for (Phase phase : {Phase::kClosed, Phase::kOpen}) {
    const std::vector<PlannedOp>& ops =
        phase == Phase::kClosed ? plan_.closed_ops : plan_.open_ops;
    std::vector<Request>& out = first_[static_cast<int>(phase)];
    out.resize(ops.size());
    parallel_for(ops.size(), threads, [&](std::size_t i) {
      const std::uint32_t c = ops[i].a;
      rp::server::AppRequestPayload req;
      req.operation = "read";
      req.object = file_name(c);
      req.credentials.push_back(rp::core::PresentedCredential{
          chains_[c].chain,
          rp::core::prove_bearer(chains_[c], {}, kFileServer,
                                 d_.clock.now(), req.digest())});
      rp::net::Envelope e;
      e.from = user_name(plan_.chains[c].user);
      e.to = kFileServer;
      e.type = rp::net::MsgType::kAppRequest;
      e.payload = rp::wire::encode_to_bytes(req);
      out[i] = make_request(e);
    });
  }
}

void Workload::generate_clearing_(unsigned threads) {
  // Every op deposits its own pre-written check, endorsed by the payee
  // over to the payee's bank; check numbers run across both phases.
  const rp::util::TimePoint now = d_.clock.now();
  std::uint64_t base = 1;
  for (Phase phase : {Phase::kClosed, Phase::kOpen}) {
    const std::vector<PlannedOp>& ops =
        phase == Phase::kClosed ? plan_.closed_ops : plan_.open_ops;
    std::vector<rp::accounting::Check>& checks =
        checks_[static_cast<int>(phase)];
    checks.resize(ops.size());
    parallel_for(ops.size(), threads, [&](std::size_t i) {
      const PlannedOp& op = ops[i];
      const Identity& payor = d_.identity(payor_name(op.a % kClearingPayors));
      const Identity& payee = d_.identity(payee_name(op.b));
      const rp::accounting::Check check = rp::accounting::write_check(
          payor.name, payor.key,
          rp::AccountId{kBankA, d_.payor_accounts()[op.a]}, payee.name, kUsd,
          1, base + i, now, kCheckLifetime);
      auto endorsed = rp::accounting::endorse_check(check, payee.name,
                                                    payee.key, kBankB, now);
      if (!endorsed.is_ok()) gen_failed("endorsement", endorsed.status());
      checks[i] = std::move(endorsed).value();
    });
    base += ops.size();
  }
}

StepResult Workload::on_reply(Phase phase, std::size_t i, int step,
                              const rp::net::Envelope& reply) {
  const PlannedOp& op = op_(phase, i);
  if (op.kind == OpKind::kRead) {
    if (!rp::net::expect_type(reply, rp::net::MsgType::kAppReply).is_ok()) {
      return failed_(reply, "read");
    }
    auto decoded =
        rp::wire::decode_from_bytes<rp::server::AppReplyPayload>(reply.payload);
    const std::string& want = files_[op.a];
    const bool same = decoded.is_ok() &&
                      decoded.value().result.size() == want.size() &&
                      std::memcmp(decoded.value().result.data(), want.data(),
                                  want.size()) == 0;
    if (!same) {
      bad_replies_.fetch_add(1);
      return failed_(reply, "read returned other bytes");
    }
    return StepResult{true, true, {}};
  }
  if (step == 0) return second_step_(phase, i, reply);

  switch (op.kind) {
    case OpKind::kTransfer: {
      auto r = rp::wire::decode_from_bytes<
          rp::accounting::TransferReplyPayload>(reply.payload);
      if (reply.type != rp::net::MsgType::kTransferReply || !r.is_ok() ||
          !r.value().ok) {
        return failed_(reply, "transfer");
      }
      return StepResult{true, true, {}};
    }
    case OpKind::kQuery: {
      auto r = rp::wire::decode_from_bytes<
          rp::accounting::AccountReplyPayload>(reply.payload);
      if (reply.type != rp::net::MsgType::kAccountReply || !r.is_ok() ||
          r.value().balances.balance(kUsd) < 0) {
        return failed_(reply, "query");
      }
      return StepResult{true, true, {}};
    }
    default: {
      auto r = rp::accounting::AccountingClient::read_deposit_reply(reply);
      if (!r.is_ok() || !r.value().cleared || r.value().hops != 1) {
        return failed_(reply, "deposit");
      }
      return StepResult{true, true, {}};
    }
  }
}

StepResult Workload::second_step_(Phase phase, std::size_t i,
                                  const rp::net::Envelope& reply) {
  auto challenge =
      rp::accounting::AccountingClient::read_challenge_reply(reply);
  if (!challenge.is_ok()) return failed_(reply, "challenge");
  const PlannedOp& op = op_(phase, i);
  rp::net::Envelope e;
  if (op.kind == OpKind::kDeposit) {
    const Identity& payee = d_.identity(payee_name(op.b));
    rp::accounting::DepositPayload req;
    req.challenge_id = challenge.value().id;
    req.check = checks_[static_cast<int>(phase)][i];
    req.collect_account = d_.payee_accounts()[op.b];
    req.amount = 1;
    req.identity = rp::core::prove_delegate_pk(
        payee.cert, payee.key, challenge.value().nonce, kBankB,
        d_.clock.now(),
        rp::core::request_digest("deposit", req.collect_account,
                                 {{kUsd, req.amount}}));
    e.from = payee.name;
    e.to = kBankB;
    e.type = rp::net::MsgType::kCheckDeposit;
    e.payload = rp::wire::encode_to_bytes(req);
  } else {
    const Identity& owner = d_.identity(owner_name(op.a % kLedgerPrincipals));
    const std::string account = ledger_account(op.a);
    e.from = owner.name;
    e.to = kBank;
    if (op.kind == OpKind::kTransfer) {
      rp::accounting::TransferPayload req;
      req.challenge_id = challenge.value().id;
      req.from_account = account;
      req.to_account = ledger_account(op.b);
      req.currency = kUsd;
      req.amount = 1;
      req.identity = rp::core::prove_delegate_pk(
          owner.cert, owner.key, challenge.value().nonce, kBank,
          d_.clock.now(),
          rp::core::request_digest("transfer",
                                   req.from_account + "->" + req.to_account,
                                   {{kUsd, req.amount}}));
      e.type = rp::net::MsgType::kTransferRequest;
      e.payload = rp::wire::encode_to_bytes(req);
    } else {
      rp::accounting::AccountQueryPayload req;
      req.challenge_id = challenge.value().id;
      req.account = account;
      req.identity = rp::core::prove_delegate_pk(
          owner.cert, owner.key, challenge.value().nonce, kBank,
          d_.clock.now(), rp::core::request_digest("query", account, {}));
      e.type = rp::net::MsgType::kAccountQuery;
      e.payload = rp::wire::encode_to_bytes(req);
    }
  }
  driver_signs_.fetch_add(1, std::memory_order_relaxed);
  return StepResult{false, false, make_request(e)};
}

Status Workload::check(std::uint64_t ok_ops, std::uint64_t ok_writes,
                       double committed) {
  if (plan_.workload == "authz") return check_authz_(ok_ops);
  if (plan_.workload == "ledger") return check_ledger_(ok_writes, committed);
  return check_clearing_(ok_ops);
}

Status Workload::check_authz_(std::uint64_t ok_ops) {
  if (bad_replies_.load() != 0) {
    return rp::util::fail(ErrorCode::kInternal,
                          std::to_string(bad_replies_.load()) +
                              " reads returned other bytes than the file");
  }
  const std::size_t allowed = d_.file_server->audit().allowed_count();
  if (allowed != ok_ops) {
    return rp::util::fail(ErrorCode::kInternal,
                          "audit log allowed " + std::to_string(allowed) +
                              " reads, driver completed " +
                              std::to_string(ok_ops));
  }
  return Status::ok();
}

Status Workload::check_ledger_(std::uint64_t ok_writes, double committed) {
  Bank& bank = *d_.banks.at(0);
  // Each acked transfer waited for a group commit covering its record.
  // Closing the journal fsyncs it too, so the recovery below cannot tell
  // an ack that skipped the commit; this count can.
  if (committed < static_cast<double>(ok_writes)) {
    return rp::util::fail(
        ErrorCode::kInternal,
        "group commits covered " +
            std::to_string(static_cast<std::int64_t>(committed)) +
            " records for " + std::to_string(ok_writes) + " acked transfers");
  }
  std::vector<std::int64_t> live(kLedgerAccounts);
  std::int64_t total = 0;
  for (std::uint32_t a = 0; a < kLedgerAccounts; ++a) {
    const rp::accounting::Account* acct =
        bank.primary->account(ledger_account(a));
    if (acct == nullptr) {
      return rp::util::fail(ErrorCode::kNotFound,
                            "account " + ledger_account(a) + " vanished");
    }
    live[a] = acct->balances().balance(kUsd);
    total += live[a];
  }
  const std::int64_t want =
      static_cast<std::int64_t>(kLedgerAccounts) * kInitialUsd;
  if (total != want) {
    return rp::util::fail(ErrorCode::kInternal,
                          "total balance " + std::to_string(total) +
                              " != " + std::to_string(want));
  }
  // Acked writes are durable: a fresh server recovering the bank's storage
  // directory holds every live balance.
  auto recovered = d_.reopen_bank(bank);
  if (!recovered.is_ok()) return recovered.status();
  for (std::uint32_t a = 0; a < kLedgerAccounts; ++a) {
    const rp::accounting::Account* acct =
        recovered.value()->account(ledger_account(a));
    if (acct == nullptr || acct->balances().balance(kUsd) != live[a]) {
      return rp::util::fail(ErrorCode::kInternal,
                            "recovered balance of " + ledger_account(a) +
                                " differs from the live one");
    }
  }
  return Status::ok();
}

Status Workload::check_clearing_(std::uint64_t ok_ops) {
  Bank& a = *d_.banks.at(0);
  Bank& b = *d_.banks.at(1);
  std::int64_t debits = 0;
  for (const std::string& name : d_.payor_accounts()) {
    debits += kInitialUsd - a.primary->account(name)->balances().balance(kUsd);
  }
  std::int64_t credits = 0;
  for (const std::string& name : d_.payee_accounts()) {
    credits += b.primary->account(name)->balances().balance(kUsd);
  }
  if (debits != credits || credits != static_cast<std::int64_t>(ok_ops)) {
    return rp::util::fail(ErrorCode::kInternal,
                          "payor debits " + std::to_string(debits) +
                              ", payee credits " + std::to_string(credits) +
                              ", cleared deposits " + std::to_string(ok_ops));
  }
  for (Bank* bank : {&a, &b}) {
    if (bank->primary->uncollected_total() != 0) {
      return rp::util::fail(ErrorCode::kInternal,
                            bank->name + " has uncollected credit left");
    }
  }
  // After a final ship, each standby's books equal its primary's.
  std::vector<std::string> a_accounts = d_.payor_accounts();
  a_accounts.push_back(std::string("peer:") + kBankB);
  const std::pair<Bank*, const std::vector<std::string>*> pairs[] = {
      {&a, &a_accounts}, {&b, &d_.payee_accounts()}};
  for (const auto& [bank, names] : pairs) {
    RPROXY_RETURN_IF_ERROR(
        bank->shipper->ship_until(bank->primary->journal_durable_lsn()));
    for (const std::string& name : *names) {
      const rp::accounting::Account* p = bank->primary->account(name);
      const rp::accounting::Account* s = bank->standby->account(name);
      if (p == nullptr || s == nullptr ||
          p->balances().balance(kUsd) != s->balances().balance(kUsd)) {
        return rp::util::fail(ErrorCode::kInternal,
                              bank->name + " standby disagrees on " + name);
      }
    }
  }
  return Status::ok();
}

}  // namespace e2e
