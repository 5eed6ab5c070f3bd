// Robustness: every decoder in the system must survive arbitrary attacker
// bytes — returning a parse error, never crashing, hanging, or silently
// succeeding on garbage.  Also mutation-fuzzes valid encodings.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "accounting/accounting_server.hpp"
#include "accounting/replication/replication.hpp"
#include "authz/authorization_server.hpp"
#include "baseline/dssa_roles.hpp"
#include "baseline/sollins.hpp"
#include "core/proxy_certificate.hpp"
#include "crypto/aead.hpp"
#include "crypto/random.hpp"
#include "kdc/kdc_server.hpp"
#include "server/end_server.hpp"
#include "testing/env.hpp"
#include "testing/tempdir.hpp"

namespace rproxy {
namespace {

using crypto::DeterministicRng;

template <typename T>
void expect_no_crash_on_random(DeterministicRng& rng, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    const util::Bytes junk = rng.next_bytes(rng.next_below(512));
    auto result = wire::decode_from_bytes<T>(junk);
    // Either a parse error or, astronomically rarely, a structurally valid
    // decode — which is fine; it must simply not crash.  Decoding garbage
    // must never loop forever either (bounded by input size).
    (void)result;
  }
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, AllDecodersSurviveRandomBytes) {
  DeterministicRng rng(GetParam());
  expect_no_crash_on_random<core::Restriction>(rng, 50);
  expect_no_crash_on_random<core::RestrictionSet>(rng, 50);
  expect_no_crash_on_random<core::ProxyCertificate>(rng, 50);
  expect_no_crash_on_random<core::ProxyChain>(rng, 50);
  expect_no_crash_on_random<core::PossessionProof>(rng, 50);
  expect_no_crash_on_random<kdc::TicketBody>(rng, 50);
  expect_no_crash_on_random<kdc::ApRequest>(rng, 50);
  expect_no_crash_on_random<kdc::AsRequestPayload>(rng, 50);
  expect_no_crash_on_random<kdc::TgsRequestPayload>(rng, 50);
  expect_no_crash_on_random<authz::AuthzRequestPayload>(rng, 50);
  expect_no_crash_on_random<authz::ProxyGrantReplyPayload>(rng, 50);
  expect_no_crash_on_random<server::AppRequestPayload>(rng, 50);
  expect_no_crash_on_random<accounting::Check>(rng, 50);
  expect_no_crash_on_random<accounting::DepositPayload>(rng, 50);
  expect_no_crash_on_random<accounting::CertifyPayload>(rng, 50);
  expect_no_crash_on_random<baseline::SollinsPassport>(rng, 50);
  expect_no_crash_on_random<baseline::DssaRoleRecord>(rng, 50);
  expect_no_crash_on_random<pki::IdentityCert>(rng, 50);
  expect_no_crash_on_random<pki::PkAuthProof>(rng, 50);
  expect_no_crash_on_random<accounting::replication::ShipRequest>(rng, 50);
  expect_no_crash_on_random<accounting::replication::BootstrapRequest>(rng,
                                                                       50);
  expect_no_crash_on_random<accounting::sharding::ShardMap>(rng, 50);
  expect_no_crash_on_random<accounting::MigrationSpec>(rng, 50);
  expect_no_crash_on_random<core::RevocationRegistry::Event>(rng, 50);
  expect_no_crash_on_random<core::KrbDelegateProofBlob>(rng, 50);
  expect_no_crash_on_random<core::ChallengeRegistry::Challenge>(rng, 50);
  expect_no_crash_on_random<server::AuditRecord>(rng, 50);
  expect_no_crash_on_random<accounting::TransferPayload>(rng, 50);
  expect_no_crash_on_random<accounting::AccountQueryPayload>(rng, 50);
  expect_no_crash_on_random<accounting::CashierPayload>(rng, 50);
  expect_no_crash_on_random<accounting::replication::ShipReply>(rng, 50);
  expect_no_crash_on_random<accounting::replication::BootstrapReply>(rng,
                                                                     50);
  // The revocation state a snapshot carries is merged, not decoded.
  for (int i = 0; i < 50; ++i) {
    core::RevocationRegistry registry;
    const util::Bytes junk = rng.next_bytes(rng.next_below(512));
    wire::Decoder dec(junk);
    (void)registry.merge_state(dec);
  }
}

TEST_P(FuzzTest, MutatedValidChainNeverVerifies) {
  DeterministicRng rng(GetParam());
  const crypto::SigningKeyPair alice = crypto::SigningKeyPair::generate();
  core::RestrictionSet set;
  set.add(core::QuotaRestriction{"usd", 7});
  set.add(core::IssuedForRestriction{{"file-server"}});
  const core::Proxy proxy = core::grant_pk_proxy(
      "alice", alice, set, 1000 * util::kSecond, util::kHour);
  const util::Bytes valid = wire::encode_to_bytes(proxy.chain);

  core::MapKeyResolver resolver;
  resolver.add("alice", alice.public_key());
  core::ProxyVerifier::Config vc;
  vc.server_name = "file-server";
  vc.resolver = &resolver;
  const core::ProxyVerifier verifier(std::move(vc));

  // Sanity: the unmodified encoding verifies.
  {
    auto chain = wire::decode_from_bytes<core::ProxyChain>(valid);
    ASSERT_TRUE(chain.is_ok());
    ASSERT_TRUE(
        verifier.verify_chain(chain.value(), 1000 * util::kSecond).is_ok());
  }

  // Single-byte mutations: every decodable mutant must FAIL verification
  // (any bit of a signed certificate matters).
  for (int i = 0; i < 200; ++i) {
    util::Bytes mutated = valid;
    mutated[rng.next_below(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    auto chain = wire::decode_from_bytes<core::ProxyChain>(mutated);
    if (!chain.is_ok()) continue;  // structural damage: fine
    auto verified =
        verifier.verify_chain(chain.value(), 1000 * util::kSecond);
    if (verified.is_ok()) {
      // The only benign mutations are within the holder-side cleartext the
      // signature does not cover — but ProxyChain has none: everything is
      // either signed or the signature itself.
      FAIL() << "mutation at some byte left the chain verifiable";
    }
  }
}

TEST_P(FuzzTest, MutatedIdentityProofNeverAuthenticatesOnAWarmVerifier) {
  // The verifier remembers the name server's signature on a certificate it
  // has checked, keyed by the certificate's bytes: no mutant of a proof
  // whose certificate is warm may ride that memo to a success.
  DeterministicRng rng(GetParam());
  util::SimClock clock;
  pki::NameServer name_server("name-server", clock);
  const crypto::SigningKeyPair alice = crypto::SigningKeyPair::generate();
  name_server.register_key("alice", alice.public_key());
  const pki::IdentityCert cert = name_server.issue_cert("alice").value();

  core::ProxyVerifier::Config vc;
  vc.server_name = "bank";
  vc.pk_root = name_server.root_key();
  ASSERT_GT(vc.verify_cache_capacity, 0u);
  const core::ProxyVerifier verifier(std::move(vc));

  const util::Bytes challenge = util::to_bytes("challenge");
  const util::Bytes digest = util::to_bytes("request");
  const core::PossessionProof proof = core::prove_delegate_pk(
      cert, alice, challenge, "bank", clock.now(), digest);
  const auto authenticates = [&](const core::PossessionProof& presented) {
    return verifier.verify_identity(presented, challenge, digest, clock.now())
        .is_ok();
  };
  ASSERT_TRUE(authenticates(proof));
  ASSERT_EQ(verifier.cache_stats().size, 1u);

  int decoded = 0;
  for (int i = 0; i < 200; ++i) {
    core::PossessionProof mutant = proof;
    mutant.blob[rng.next_below(mutant.blob.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    if (!wire::decode_from_bytes<pki::PkAuthProof>(mutant.blob).is_ok()) {
      continue;  // structural damage: fine
    }
    decoded += 1;
    EXPECT_FALSE(authenticates(mutant)) << "mutant " << i << " authenticated";
  }
  EXPECT_GT(decoded, 0);
  // The original still passes, served from the memo.
  const std::uint64_t hits = verifier.cache_stats().hits;
  EXPECT_TRUE(authenticates(proof));
  EXPECT_EQ(verifier.cache_stats().hits, hits + 1);
}

TEST_P(FuzzTest, TruncatedEnvelopesHandledByServers) {
  // Fire random payloads at a live KDC node: every reply must be a
  // well-formed error envelope, never a crash.
  DeterministicRng rng(GetParam());
  util::SimClock clock;
  net::SimNet net(clock);
  kdc::PrincipalDb db;
  db.register_with_password("kdc", "x");
  kdc::KdcServer kdc_server("kdc", std::move(db), clock);
  net.attach("kdc", kdc_server);

  for (int i = 0; i < 100; ++i) {
    const net::MsgType type = rng.next_below(2) == 0
                                  ? net::MsgType::kAsRequest
                                  : net::MsgType::kTgsRequest;
    auto reply = net.rpc("fuzzer", "kdc", type,
                         rng.next_bytes(rng.next_below(256)));
    ASSERT_TRUE(reply.is_ok());
    EXPECT_FALSE(net::status_of(reply.value()).is_ok());
  }
}

/// One valid journal record of every JournalRecordType, harvested from the
/// journal of a storage-backed bank driven through its real APIs.
std::vector<storage::JournalRecord> harvest_journal_records() {
  testing::World world;
  for (const char* name : {"client", "merchant", "bank", "drawee"}) {
    world.add_principal(name);
  }
  testing::TempDir dir;
  auto config = world.accounting_config("bank");
  config.storage_dir = dir.sub("bank");
  config.storage_key = crypto::SymmetricKey::generate();
  config.fsync_policy = storage::FsyncPolicy::kEveryRecord;
  accounting::AccountingServer bank(std::move(config));
  EXPECT_TRUE(bank.recover().is_ok());
  accounting::AccountingServer drawee(world.accounting_config("drawee"));
  world.net.attach("bank", bank);
  world.net.attach("drawee", drawee);
  bank.open_account("client-acct", "client",
                    accounting::Balances{{"usd", 1000}});
  bank.open_account("merchant-acct", "merchant");
  drawee.open_account("remote-acct", "client",
                      accounting::Balances{{"usd", 1000}});
  bank.set_route("far-bank", "drawee");

  auto client = world.accounting_client("client");
  auto merchant = world.accounting_client("merchant");
  const auto check = [&](const PrincipalName& server,
                         const std::string& account, std::uint64_t number) {
    return accounting::write_check(
        "client", world.principal("client").identity,
        AccountId{server, account}, "merchant", "usd", 7, number,
        world.clock.now(), util::kHour);
  };
  EXPECT_TRUE(client.transfer("bank", "client-acct", "merchant-acct", "usd", 5)
                  .is_ok());
  EXPECT_TRUE(client
                  .certify("bank", "client-acct", "merchant", "usd", 20, 1,
                           "merchant")
                  .is_ok());
  EXPECT_TRUE(merchant
                  .endorse_and_deposit("bank", check("bank", "client-acct", 2),
                                       "merchant-acct")
                  .is_ok());
  EXPECT_TRUE(
      merchant
          .endorse_and_deposit("bank", check("drawee", "remote-acct", 3),
                               "merchant-acct")
          .is_ok());
  EXPECT_TRUE(client
                  .buy_cashier_check("bank", "client-acct", "merchant", "usd",
                                     4)
                  .is_ok());
  world.revocation.bump("someone");

  const std::uint64_t nowhere =
      accounting::sharding::stable_hash64("no-such-account");
  const accounting::MigrationSpec out{1, nowhere, nowhere, "bank", "other"};
  EXPECT_TRUE(bank.migration_freeze(out).is_ok());
  EXPECT_TRUE(bank.migration_evacuate(out).is_ok());
  const accounting::MigrationSpec in{2, nowhere, nowhere, "other", "bank"};
  accounting::MigratedAccount moved;
  moved.name = "imported-acct";
  moved.owner = "client";
  moved.balances = accounting::Balances{{"usd", 30}};
  moved.holds.push_back({"client", 9, "usd", 10, world.clock.now()});
  EXPECT_TRUE(bank.migration_import(in, {moved}).is_ok());
  EXPECT_TRUE(bank.adopt_identity("old-bank").is_ok());

  auto tail = bank.journal_read_committed(1, 1000);
  EXPECT_TRUE(tail.is_ok());
  std::vector<storage::JournalRecord> records = tail.value().records;
  // A record as a standby journals it: the route record, replicated.
  const auto route = std::find_if(
      records.begin(), records.end(), [](const storage::JournalRecord& r) {
        return r.type == static_cast<std::uint16_t>(
                             accounting::JournalRecordType::kRouteSet);
      });
  EXPECT_TRUE(bank.apply_replicated(*route, "upstream", 1).is_ok());
  tail = bank.journal_read_committed(records.back().lsn + 1, 1);
  EXPECT_TRUE(tail.is_ok());
  records.push_back(tail.value().records.at(0));
  return records;
}

/// Every account's balances and holds (and the rest of the books), as the
/// snapshot plaintext.
util::Bytes books(const accounting::AccountingServer& server,
                  const crypto::SymmetricKey& key) {
  return crypto::aead_open(key.derive_subkey("accounting:snapshot"),
                           server.snapshot(key))
      .value();
}

TEST_P(FuzzTest, HostileJournalRecordsNeverCorruptTheBooks) {
  // Journal records reach apply_replicated() from a peer over the wire and
  // replay from disk: every type, as random bytes, truncated and
  // bit-flipped, must be applied or refused — never crash — and a refused
  // record must leave the books untouched.
  DeterministicRng rng(GetParam());
  const std::vector<storage::JournalRecord> valid = harvest_journal_records();
  std::set<std::uint16_t> types;
  for (const storage::JournalRecord& record : valid) types.insert(record.type);
  ASSERT_EQ(types.size(), 13u) << "a JournalRecordType went unharvested";

  testing::World world;
  world.add_principal("replica");
  core::RevocationRegistry registry;
  auto config = world.accounting_config("replica");
  config.revocation = &registry;
  accounting::AccountingServer replica(std::move(config));
  std::uint64_t lsn = 0;
  for (const storage::JournalRecord& record : valid) {
    ASSERT_TRUE(replica.apply_replicated(record, "primary", ++lsn).is_ok())
        << "type " << record.type;
  }

  const crypto::SymmetricKey key = crypto::SymmetricKey::generate();
  int refused = 0;
  for (const storage::JournalRecord& record : valid) {
    for (int round = 0; round < 60; ++round) {
      storage::JournalRecord mutant{0, record.type, record.payload};
      switch (round % 3) {
        case 0:
          mutant.payload = rng.next_bytes(rng.next_below(256));
          break;
        case 1:
          mutant.payload.resize(rng.next_below(record.payload.size()));
          break;
        default:
          mutant.payload[rng.next_below(mutant.payload.size())] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
          break;
      }
      const util::Bytes before = books(replica, key);
      if (!replica.apply_replicated(mutant, "fuzzer", ++lsn).is_ok()) {
        refused += 1;
        EXPECT_EQ(books(replica, key), before)
            << "refused type " << record.type << " changed the books";
      }
    }
  }
  EXPECT_GT(refused, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(0xfeed, 0xbeef, 0xcafe, 0xf00d));

}  // namespace
}  // namespace rproxy
