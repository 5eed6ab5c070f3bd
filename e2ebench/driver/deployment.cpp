#include "driver/deployment.hpp"

#include <cstdio>
#include <stdexcept>

#include "accounting/sharding/shard_map.hpp"
#include "crypto/random.hpp"
#include "driver/util.hpp"

namespace e2e {

using rp::net::MsgType;

namespace {

[[noreturn]] void setup_failed(const std::string& what,
                               const rp::util::Status& status) {
  throw std::runtime_error(what + ": " + status.to_string());
}

std::string numbered(const char* prefix, std::uint32_t i, int width) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s%0*u", prefix, width, i);
  return buf;
}

SpanName classify_file_server(MsgType) { return SpanName::kServerHandle; }

SpanName classify_front_bank(MsgType type) {
  switch (type) {
    case MsgType::kAccountQuery: return SpanName::kAcctQuery;
    case MsgType::kTransferRequest: return SpanName::kAcctTransfer;
    case MsgType::kCheckDeposit: return SpanName::kAcctDeposit;
    default: return SpanName::kAcctChallenge;
  }
}

SpanName classify_drawee(MsgType type) {
  return type == MsgType::kCheckDeposit ? SpanName::kSettle
                                        : SpanName::kSimChallenge;
}

SpanName classify_standby(MsgType) { return SpanName::kStandbyApply; }

}  // namespace

std::string user_name(std::uint32_t i) { return numbered("user-", i, 3); }
std::string file_name(std::uint32_t c) { return numbered("file-", c, 4); }
std::string owner_name(std::uint32_t i) { return numbered("owner-", i, 4); }
std::string ledger_account(std::uint32_t a) {
  return numbered("acct-", a, 6);
}
std::string payor_name(std::uint32_t i) { return numbered("payor-", i, 2); }
std::string payee_name(std::uint32_t i) { return numbered("payee-", i, 2); }

std::string file_contents(const Plan& plan, std::uint32_t c) {
  rp::crypto::DeterministicRng rng(plan.seed ^ (0xF11Eull << 32) ^ c);
  const rp::util::Bytes bytes = rng.next_bytes(plan.file_sizes.at(c));
  return std::string(bytes.begin(), bytes.end());
}

ClockTicker::ClockTicker(rp::util::SimClock& clock) : clock_(clock) {}

void ClockTicker::start(std::function<void()> sampler) {
  sampler_ = std::move(sampler);
  running_ = true;
  thread_ = std::thread([this] {
    const std::int64_t wall0 = now_ns();
    const rp::util::TimePoint sim0 = clock_.now();
    while (running_.load()) {
      const rp::util::TimePoint target = sim0 + (now_ns() - wall0) / 1000;
      if (target > clock_.now()) clock_.set(target);
      if (sampler_) sampler_();
      cpu_ns_.store(static_cast<std::int64_t>(thread_cpu_s() * 1e9));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

void ClockTicker::stop() {
  running_ = false;
  if (thread_.joinable()) thread_.join();
}

rp::util::Result<rp::crypto::VerifyKey> CountingResolver::resolve(
    const rp::PrincipalName& name) const {
  ScopedSpan span(tracer_, SpanName::kKeyResolve);
  calls_.fetch_add(1, std::memory_order_relaxed);
  return ns_.key_of(name);
}

Deployment::Deployment(const Plan& plan, const std::string& work_dir,
                       Tracer* tracer)
    : resolver(name_server, tracer), tracer_(tracer) {
  net.set_default_latency(0);
  if (plan.workload == "authz") {
    build_authz_(plan);
  } else if (plan.workload == "ledger") {
    build_ledger_(work_dir);
  } else {
    build_clearing_(work_dir);
  }
  const rp::util::Status started = front_.start();
  if (!started.is_ok()) setup_failed("event loop start", started);
  // Replication lag is sampled only when traced: reading the durable
  // watermark takes the bank's state lock.
  std::function<void()> sampler;
  if (tracer_ != nullptr && plan.workload == "clearing") {
    sampler = [this] {
      for (const auto& bank : banks) {
        const std::uint64_t durable = bank->primary->journal_durable_lsn();
        const std::uint64_t acked = bank->shipper->min_acked_lsn();
        const std::uint64_t lag = durable > acked ? durable - acked : 0;
        std::uint64_t seen = max_lag_.load();
        while (lag > seen && !max_lag_.compare_exchange_weak(seen, lag)) {
        }
      }
    };
  }
  ticker_.start(std::move(sampler));
}

Deployment::~Deployment() { stop(); }

void Deployment::stop() {
  front_.stop();
  ticker_.stop();
}

Identity& Deployment::add_identity_(const std::string& name, bool kerberos) {
  Identity id;
  id.name = name;
  if (kerberos) {
    id.krb_key = kdc->db().register_with_password(name, name + "-pw");
  }
  id.key = rp::crypto::SigningKeyPair::generate();
  name_server.register_key(name, id.key.public_key());
  id.cert = name_server.issue_cert(name).value();
  return identities_[name] = std::move(id);
}

void Deployment::serve_(const std::string& id, rp::net::Node& node,
                        bool front, TracedNode::Classify classify) {
  rp::net::Node* served = &node;
  if (tracer_ != nullptr) {
    wrappers_.push_back(std::make_unique<TracedNode>(node, *tracer_, front,
                                                     classify, wrong_shard));
    served = wrappers_.back().get();
  }
  if (front) {
    front_.attach(id, *served);
  } else {
    net.attach(id, *served);
  }
}

void Deployment::build_authz_(const Plan& plan) {
  rp::kdc::PrincipalDb db;
  db.register_with_password("kdc", "kdc-master-key");
  kdc = std::make_unique<rp::kdc::KdcServer>("kdc", std::move(db), clock);
  net.attach("kdc", *kdc);
  net.attach("name-server", name_server);

  const Identity& server = add_identity_(kFileServer, true);
  rp::server::EndServer::Config config;
  config.name = kFileServer;
  config.server_key = server.krb_key;
  config.resolver = &resolver;
  config.pk_root = name_server.root_key();
  config.clock = &clock;
  file_server = std::make_unique<rp::server::FileServer>(std::move(config));
  for (std::uint32_t u = 0; u < kAuthzUsers; ++u) {
    add_identity_(user_name(u), true);
    file_server->acl().add(rp::authz::AclEntry{.principals = {user_name(u)},
                                               .operations = {"read"},
                                               .objects = {},
                                               .restrictions = {}});
  }
  for (std::uint32_t c = 0; c < kAuthzChains; ++c) {
    file_server->put_file(file_name(c), file_contents(plan, c));
  }
  serve_(kFileServer, *file_server, true, classify_file_server);
}

rp::accounting::AccountingServer::Config Deployment::bank_config_(
    const std::string& name, const std::string& dir) {
  const auto known = identities_.find(name);
  const Identity& id =
      known != identities_.end() ? known->second : add_identity_(name, false);
  rp::accounting::AccountingServer::Config config;
  config.name = name;
  config.clock = &clock;
  config.net = &net;
  config.resolver = &resolver;
  config.pk_root = name_server.root_key();
  config.identity_key = id.key;
  config.identity_cert = id.cert;
  if (!dir.empty()) {
    config.storage_dir = dir;
    config.storage_key = storage_key_;
    config.fsync_policy = rp::storage::FsyncPolicy::kGroup;
  }
  return config;
}

Bank& Deployment::add_bank_(const std::string& name, const std::string& dir,
                            bool replicated) {
  banks.push_back(std::make_unique<Bank>());
  Bank& bank = *banks.back();
  bank.name = name;
  bank.dir = dir;
  rp::accounting::AccountingServer::Config config = bank_config_(name, dir);
  if (replicated) {
    config.shard = &directory;
    Bank* b = &bank;
    Tracer* tracer = tracer_;
    config.replication_barrier = [b, tracer](std::uint64_t lsn) {
      ScopedSpan span(tracer, SpanName::kBarrier);
      return b->shipper->ship_until(lsn);
    };
  }
  bank.primary =
      std::make_unique<rp::accounting::AccountingServer>(std::move(config));
  const rp::util::Status recovered = bank.primary->recover();
  if (!recovered.is_ok()) setup_failed(name + " recover", recovered);
  if (!replicated) return bank;

  const std::string standby = name + "-standby";
  bank.standby = std::make_unique<rp::accounting::AccountingServer>(
      bank_config_(standby));
  rp::accounting::replication::StandbyReplayer::Config rc;
  rc.name = standby;
  rc.primary = name;
  rc.server = bank.standby.get();
  rc.clock = &clock;
  rc.storage_key = storage_key_;
  bank.replayer = std::make_unique<rp::accounting::replication::StandbyReplayer>(
      std::move(rc));
  serve_(standby, *bank.replayer, false, classify_standby);
  rp::accounting::replication::JournalShipper::Config sc;
  sc.primary = bank.primary.get();
  sc.net = &net;
  sc.standbys = {standby};
  bank.shipper =
      std::make_unique<rp::accounting::replication::JournalShipper>(
          std::move(sc));
  return bank;
}

rp::util::Result<std::unique_ptr<rp::accounting::AccountingServer>>
Deployment::reopen_bank(Bank& bank) {
  bank.primary.reset();
  auto server = std::make_unique<rp::accounting::AccountingServer>(
      bank_config_(bank.name, bank.dir));
  RPROXY_RETURN_IF_ERROR(server->recover());
  return server;
}

void Deployment::build_ledger_(const std::string& work_dir) {
  for (std::uint32_t p = 0; p < kLedgerPrincipals; ++p) {
    add_identity_(owner_name(p), false);
  }
  Bank& bank = add_bank_(kBank, work_dir + "/bank", false);
  for (std::uint32_t a = 0; a < kLedgerAccounts; ++a) {
    bank.primary->open_account(ledger_account(a),
                               owner_name(a % kLedgerPrincipals),
                               rp::accounting::Balances{{"usd", kInitialUsd}});
  }
  const rp::util::Status sealed = bank.primary->checkpoint();
  if (!sealed.is_ok()) setup_failed("bank checkpoint", sealed);
  serve_(kBank, *bank.primary, true, classify_front_bank);
}

void Deployment::build_clearing_(const std::string& work_dir) {
  directory.install(
      rp::accounting::sharding::uniform_map({kBankA, kBankB}, 1));
  for (std::uint32_t i = 0; i < kClearingPayors; ++i) {
    add_identity_(payor_name(i), false);
  }
  for (std::uint32_t i = 0; i < kClearingPayees; ++i) {
    add_identity_(payee_name(i), false);
  }
  Bank& a = add_bank_(kBankA, work_dir + "/bank-a", true);
  Bank& b = add_bank_(kBankB, work_dir + "/bank-b", true);

  // Account names are probed until the shard map homes them on the
  // intended bank; the shard gate would refuse any other placement.
  const auto homed_name = [this](const std::string& stem,
                                 const std::string& bank) {
    for (std::uint32_t k = 0;; ++k) {
      std::string name = stem + "-" + std::to_string(k);
      if (directory.home(name) == bank) return name;
    }
  };
  for (std::uint32_t k = 0; k < kClearingPayorAccounts; ++k) {
    payor_accounts_.push_back(homed_name(
        "chk-" + std::to_string(k), kBankA));
    a.primary->open_account(payor_accounts_.back(),
                            payor_name(k % kClearingPayors),
                            rp::accounting::Balances{{"usd", kInitialUsd}});
  }
  for (std::uint32_t i = 0; i < kClearingPayees; ++i) {
    payee_accounts_.push_back(homed_name("rcv-" + std::to_string(i), kBankB));
    b.primary->open_account(payee_accounts_.back(), payee_name(i),
                            rp::accounting::Balances{{"usd", 0}});
  }
  // Seal the opened books and bootstrap each standby from the snapshot.
  for (Bank* bank : {&a, &b}) {
    rp::util::Status st = bank->primary->checkpoint();
    if (st.is_ok()) {
      st = bank->shipper->ship_until(bank->primary->journal_durable_lsn());
    }
    if (!st.is_ok()) setup_failed(bank->name + " standby bootstrap", st);
  }
  serve_(kBankA, *a.primary, false, classify_drawee);
  serve_(kBankB, *b.primary, true, classify_front_bank);
}

}  // namespace e2e
