// The deployment under test, built in one place for every workload.
//
// One process hosts the real servers: the front servers (file server or
// accounting bank) behind one default-options net::EventLoopServer, and
// peer banks and standbys on net::SimNet with zero link latency.  A single
// ticker moves the shared SimClock along with wall time, so challenge,
// replay-cache and hold expiry behave as in a deployment.  Every component
// keeps its defaults except what a workload names: fsync policy, the
// replication barrier and the shard map.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "accounting/accounting_server.hpp"
#include "accounting/replication/journal_shipper.hpp"
#include "accounting/replication/standby.hpp"
#include "driver/plan.hpp"
#include "driver/trace.hpp"
#include "kdc/kdc_server.hpp"
#include "net/event_loop.hpp"
#include "pki/name_server.hpp"
#include "server/file_server.hpp"

namespace e2e {

namespace rp = rproxy;

/// Moves the shared SimClock to follow wall time; the only place that
/// advances it.  Optionally samples a gauge on every tick.
class ClockTicker {
 public:
  explicit ClockTicker(rp::util::SimClock& clock);
  ~ClockTicker() { stop(); }
  ClockTicker(const ClockTicker&) = delete;
  ClockTicker& operator=(const ClockTicker&) = delete;

  /// Installs the gauge sampler; call before any other thread reads it.
  void start(std::function<void()> sampler);
  void stop();
  /// CPU time the ticker thread has used, as of its latest tick.
  [[nodiscard]] double cpu_s() const {
    return static_cast<double>(cpu_ns_.load()) / 1e9;
  }

 private:
  rp::util::SimClock& clock_;
  std::function<void()> sampler_;
  std::atomic<bool> running_{false};
  std::atomic<std::int64_t> cpu_ns_{0};
  std::thread thread_;
};

/// Name-server key lookups, counted: one call per cold public-key link.
class CountingResolver final : public rp::core::KeyResolver {
 public:
  CountingResolver(const rp::pki::NameServer& ns, Tracer* tracer)
      : ns_(ns), tracer_(tracer) {}
  rp::util::Result<rp::crypto::VerifyKey> resolve(
      const rp::PrincipalName& name) const override;
  [[nodiscard]] std::uint64_t calls() const { return calls_.load(); }

 private:
  const rp::pki::NameServer& ns_;
  Tracer* tracer_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

/// A principal's secrets, as its client holds them.
struct Identity {
  rp::PrincipalName name;
  rp::crypto::SymmetricKey krb_key;  ///< authz only
  rp::crypto::SigningKeyPair key;
  rp::pki::IdentityCert cert;
};

/// One accounting bank: a kGroup-durable primary, optionally with a hot
/// standby behind the semi-sync replication barrier.
struct Bank {
  std::string name;
  std::unique_ptr<rp::accounting::AccountingServer> primary;
  std::unique_ptr<rp::accounting::AccountingServer> standby;
  std::unique_ptr<rp::accounting::replication::StandbyReplayer> replayer;
  std::unique_ptr<rp::accounting::replication::JournalShipper> shipper;
  std::string dir;
};

// Node and account names shared by the workloads.
inline constexpr const char* kFileServer = "file-server";
inline constexpr const char* kBank = "bank";
inline constexpr const char* kBankA = "bank-a";
inline constexpr const char* kBankB = "bank-b";
[[nodiscard]] std::string user_name(std::uint32_t i);
[[nodiscard]] std::string file_name(std::uint32_t c);
[[nodiscard]] std::string file_contents(const Plan& plan, std::uint32_t c);
[[nodiscard]] std::string owner_name(std::uint32_t i);
[[nodiscard]] std::string ledger_account(std::uint32_t a);
[[nodiscard]] std::string payor_name(std::uint32_t i);
[[nodiscard]] std::string payee_name(std::uint32_t i);
/// Initial balance of every funded account.
inline constexpr std::int64_t kInitialUsd = 1'000'000;

class Deployment {
 public:
  /// Brings up the deployment for plan.workload under `work_dir`.  With a
  /// tracer, every served node sits behind a timing wrapper; without one,
  /// the raw nodes are attached.
  Deployment(const Plan& plan, const std::string& work_dir, Tracer* tracer);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] std::uint16_t port() const { return front_.port(); }
  /// Stops serving (front listener first); state stays inspectable.
  void stop();

  [[nodiscard]] const Identity& identity(const std::string& name) const {
    return identities_.at(name);
  }
  /// Payor-account names on bank A and payee-account names on bank B
  /// (clearing), each homed on its bank by the shard map.
  [[nodiscard]] const std::vector<std::string>& payor_accounts() const {
    return payor_accounts_;
  }
  [[nodiscard]] const std::vector<std::string>& payee_accounts() const {
    return payee_accounts_;
  }
  [[nodiscard]] std::uint64_t max_lag_lsn() const { return max_lag_.load(); }
  /// CPU time of the clock ticker, which belongs to the benchmark.
  [[nodiscard]] double ticker_cpu_s() const { return ticker_.cpu_s(); }

  /// Closes the bank's primary (serving must be stopped) and recovers a
  /// fresh server from its storage directory, as a restart would.
  [[nodiscard]] rp::util::Result<
      std::unique_ptr<rp::accounting::AccountingServer>>
  reopen_bank(Bank& bank);

  rp::util::SimClock clock;
  rp::net::SimNet net{clock};
  rp::pki::NameServer name_server{"name-server", clock};
  CountingResolver resolver;
  std::unique_ptr<rp::kdc::KdcServer> kdc;
  std::unique_ptr<rp::server::FileServer> file_server;
  rp::accounting::sharding::ShardDirectory directory;
  /// ledger: one bank; clearing: bank A (drawee) then bank B (payee bank).
  std::vector<std::unique_ptr<Bank>> banks;
  std::atomic<std::uint64_t> wrong_shard{0};

 private:
  Identity& add_identity_(const std::string& name, bool kerberos);
  /// An accounting server's config; with `dir`, kGroup-durable there.
  rp::accounting::AccountingServer::Config bank_config_(
      const std::string& name, const std::string& dir = {});
  Bank& add_bank_(const std::string& name, const std::string& dir,
                  bool replicated);
  void build_authz_(const Plan& plan);
  void build_ledger_(const std::string& work_dir);
  void build_clearing_(const std::string& work_dir);
  /// Serves `node` behind the event loop (front) or on SimNet (nested).
  void serve_(const std::string& id, rp::net::Node& node, bool front,
              TracedNode::Classify classify);

  Tracer* tracer_;
  rp::crypto::SymmetricKey storage_key_ = rp::crypto::SymmetricKey::generate();
  std::map<std::string, Identity> identities_;
  std::vector<std::string> payor_accounts_;
  std::vector<std::string> payee_accounts_;
  std::vector<std::unique_ptr<TracedNode>> wrappers_;
  std::atomic<std::uint64_t> max_lag_{0};
  ClockTicker ticker_{clock};
  rp::net::EventLoopServer front_;
};

}  // namespace e2e
