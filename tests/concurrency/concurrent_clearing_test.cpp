// Concurrent cross-bank clearing (TSan coverage, see .github/workflows/ci.yml):
// several threads deposit distinct checks at the payee bank at once, and
// each deposit collects from the drawee over SimNet while both banks group-
// commit and ship to a hot standby behind the semi-sync barrier.  The books
// must balance exactly, every standby must converge on its primary, and two
// collections must actually have been inside the drawee at the same time —
// a net that runs one handler at a time fails this test instead of hiding
// behind it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "accounting/clearing.hpp"
#include "accounting/replication/journal_shipper.hpp"
#include "accounting/replication/standby.hpp"
#include "testing/env.hpp"
#include "testing/tempdir.hpp"

namespace rproxy {
namespace {

using accounting::AccountingServer;
using accounting::Balances;
using accounting::replication::JournalShipper;
using accounting::replication::StandbyReplayer;
using rproxy::testing::World;

constexpr int kDepositors = 4;
constexpr int kChecksPerDepositor = 6;
constexpr std::int64_t kFunds = 1'000'000;

/// A kGroup-durable bank with one hot standby behind its barrier.
struct ReplicatedBank {
  std::unique_ptr<AccountingServer> primary;
  std::unique_ptr<AccountingServer> replica;
  std::unique_ptr<StandbyReplayer> standby;
  std::unique_ptr<JournalShipper> shipper;

  ReplicatedBank(World& world, const rproxy::testing::TempDir& tmp,
                 const crypto::SymmetricKey& key, const std::string& name) {
    const std::string standby_name = name + "-standby";
    auto config = world.accounting_config(name);
    config.storage_dir = tmp.sub(name);
    config.storage_key = key;
    config.fsync_policy = storage::FsyncPolicy::kGroup;
    config.replication_barrier = [this](std::uint64_t lsn) {
      return shipper->ship_until(lsn);
    };
    primary = std::make_unique<AccountingServer>(std::move(config));
    replica = std::make_unique<AccountingServer>(
        world.accounting_config(standby_name));
    StandbyReplayer::Config rc;
    rc.name = standby_name;
    rc.primary = name;
    rc.server = replica.get();
    rc.clock = &world.clock;
    rc.storage_key = key;
    standby = std::make_unique<StandbyReplayer>(std::move(rc));
    world.net.attach(standby_name, *standby);
    JournalShipper::Config sc;
    sc.primary = primary.get();
    sc.net = &world.net;
    sc.standbys = {standby_name};
    shipper = std::make_unique<JournalShipper>(std::move(sc));
  }
};

/// The drawee's SimNet attachment.  It holds the first collection until a
/// second one enters (bounded, so a serializing net fails rather than
/// hangs) and records whether one did.
class OverlapWitness final : public net::Node {
 public:
  explicit OverlapWitness(net::Node& drawee) : drawee_(drawee) {}
  net::Envelope handle(const net::Envelope& request) override {
    if (request.type == net::MsgType::kCheckDeposit) {
      std::unique_lock lock(mutex_);
      collections_ += 1;
      cv_.notify_all();
      if (collections_ == 1) {
        overlapped_ = cv_.wait_for(lock, std::chrono::seconds(2),
                                   [&] { return collections_ > 1; });
      }
    }
    return drawee_.handle(request);
  }
  [[nodiscard]] bool overlapped() {
    std::lock_guard lock(mutex_);
    return overlapped_;
  }

 private:
  net::Node& drawee_;
  std::mutex mutex_;
  std::condition_variable cv_;
  int collections_ = 0;
  bool overlapped_ = false;
};

[[nodiscard]] std::int64_t usd(const AccountingServer& server,
                               const std::string& account) {
  const auto* acct = server.account(account);
  return acct == nullptr ? -1 : acct->balances().balance("usd");
}

TEST(ConcurrentClearing, DepositsCollectInParallelAndTheBooksBalance) {
  World world;
  rproxy::testing::TempDir tmp;
  const crypto::SymmetricKey key = crypto::SymmetricKey::generate();
  for (const char* name : {"payor", "payee", "bank-a", "bank-a-standby",
                           "bank-b", "bank-b-standby"}) {
    world.add_principal(name);
  }
  // bank-a is the drawee, bank-b the payee's (collecting) bank.
  ReplicatedBank a(world, tmp, key, "bank-a");
  ReplicatedBank b(world, tmp, key, "bank-b");
  OverlapWitness drawee(*a.primary);
  for (ReplicatedBank* bank : {&a, &b}) {
    ASSERT_TRUE(bank->primary->recover().is_ok());
  }
  world.net.attach("bank-a", drawee);
  world.net.attach("bank-b", *b.primary);
  a.primary->open_account("payor-acct", "payor", Balances{{"usd", kFunds}});
  b.primary->open_account("payee-acct", "payee", Balances{{"usd", 0}});
  for (ReplicatedBank* bank : {&a, &b}) {
    ASSERT_TRUE(
        bank->shipper->ship_until(bank->primary->journal_durable_lsn())
            .is_ok());
  }

  std::atomic<std::int64_t> cleared_total{0};
  std::atomic<int> cleared{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> depositors;
  for (int d = 0; d < kDepositors; ++d) {
    depositors.emplace_back([&, d] {
      auto payee = world.accounting_client("payee");
      for (int i = 0; i < kChecksPerDepositor; ++i) {
        const std::uint64_t number =
            static_cast<std::uint64_t>(d * kChecksPerDepositor + i + 1);
        const accounting::Check check = accounting::write_check(
            "payor", world.principal("payor").identity,
            AccountId{"bank-a", "payor-acct"}, "payee", "usd", number,
            number, world.clock.now(), util::kHour);
        auto reply = payee.endorse_and_deposit("bank-b", check, "payee-acct");
        if (reply.is_ok() && reply.value().cleared) {
          cleared.fetch_add(1);
          cleared_total.fetch_add(static_cast<std::int64_t>(number));
        } else {
          failed.fetch_add(1);
          ADD_FAILURE() << "check " << number << ": "
                        << (reply.is_ok() ? "not cleared"
                                          : reply.status().to_string());
        }
      }
    });
  }
  for (std::thread& t : depositors) t.join();

  EXPECT_TRUE(drawee.overlapped())
      << "no two collections were ever inside the drawee at once";
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(cleared.load(), kDepositors * kChecksPerDepositor);
  // Conservation: the payor lost exactly what the payee gained, and that
  // is exactly what the cleared checks were worth.
  const std::int64_t debited = kFunds - usd(*a.primary, "payor-acct");
  const std::int64_t credited = usd(*b.primary, "payee-acct");
  EXPECT_EQ(debited, cleared_total.load());
  EXPECT_EQ(credited, cleared_total.load());
  EXPECT_EQ(b.primary->uncollected_total(), 0);

  // Every standby converges on its primary.
  for (ReplicatedBank* bank : {&a, &b}) {
    ASSERT_TRUE(
        bank->shipper->ship_until(bank->primary->journal_durable_lsn())
            .is_ok());
    EXPECT_EQ(bank->standby->received_lsn(),
              bank->primary->journal_durable_lsn());
    EXPECT_EQ(bank->standby->apply_failures(), 0u);
  }
  EXPECT_EQ(usd(*a.replica, "payor-acct"), usd(*a.primary, "payor-acct"));
  EXPECT_EQ(usd(*a.replica, "peer:bank-b"), usd(*a.primary, "peer:bank-b"));
  EXPECT_EQ(usd(*b.replica, "payee-acct"), usd(*b.primary, "payee-acct"));
}

}  // namespace
}  // namespace rproxy
