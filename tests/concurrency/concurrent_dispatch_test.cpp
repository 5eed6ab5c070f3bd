// Concurrent dispatch over real TCP: many client threads, many nodes, one
// server with no global dispatch lock.  The event loop runs challenges
// and file reads inline on its reactors and transfers, certifies and KDC
// exchanges on its pool, so both dispatch paths share each node's state
// here; the protocol invariants cannot depend on who schedules the
// handlers.
//
// The invariants under fire are the financial ones: concurrent authenticated
// transfers must neither lose nor duplicate postings (conservation), a
// single-use challenge must have exactly one winner no matter how many
// connections race it, and a check number must certify exactly once (§7.7).
// Run under -fsanitize=thread (RPROXY_SANITIZE=thread) to also prove the
// absence of data races in the per-node locking.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "accounting/accounting_server.hpp"
#include "core/request.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "testing/env.hpp"

namespace rproxy {
namespace {

using testing::World;

constexpr int kClients = 8;
constexpr int kTransfersPerClient = 25;
constexpr std::uint64_t kInitialBalance = 1'000;

class ConcurrentDispatch : public ::testing::Test {
 protected:
  ConcurrentDispatch() {
    world_.add_principal("bank");
    world_.add_principal("file-server");
    for (int i = 0; i < kClients; ++i) {
      world_.add_principal(client_name(i));
    }

    bank_ = std::make_unique<accounting::AccountingServer>(
        world_.accounting_config("bank"));
    for (int i = 0; i < kClients; ++i) {
      bank_->open_account(client_name(i), client_name(i),
                          accounting::Balances{{{"credits", kInitialBalance}}});
    }
    bank_->open_account("pot", "bank");

    file_server_ = std::make_unique<server::FileServer>(
        world_.end_server_config("file-server"));
    file_server_->put_file("/doc", "concurrent");
    for (int i = 0; i < kClients; ++i) {
      file_server_->acl().add(authz::AclEntry{{client_name(i)}, {}, {}, {}});
    }

    loop_.attach("kdc", *world_.kdc_server);
    loop_.attach("bank", *bank_);
    loop_.attach("file-server", *file_server_);
    const util::Status started = loop_.start();
    EXPECT_TRUE(started.is_ok()) << started;
    port_ = loop_.port();
  }

  static std::string client_name(int i) {
    return "client-" + std::to_string(i);
  }

  /// Typed round trip over TCP (each call opens its own connection, so it
  /// is safe to issue from any thread).
  template <typename ReplyT, typename RequestT>
  util::Result<ReplyT> call(const PrincipalName& from,
                            const PrincipalName& to, net::MsgType req_type,
                            net::MsgType reply_type,
                            const RequestT& request) {
    net::Envelope e;
    e.from = from;
    e.to = to;
    e.type = req_type;
    e.payload = wire::encode_to_bytes(request);
    RPROXY_ASSIGN_OR_RETURN(net::Envelope reply,
                            net::tcp_rpc("127.0.0.1", port_, e));
    RPROXY_RETURN_IF_ERROR(net::expect_type(reply, reply_type));
    return wire::decode_from_bytes<ReplyT>(reply.payload);
  }

  /// One authenticated 1-credit transfer from `who`'s account to "pot",
  /// entirely over TCP: challenge round trip, then the signed transfer.
  util::Status transfer_one(int who) {
    const std::string name = client_name(who);
    RPROXY_ASSIGN_OR_RETURN(
        core::ChallengeRegistry::Challenge challenge,
        (call<core::ChallengeRegistry::Challenge>(
            name, "bank", net::MsgType::kPresentChallengeRequest,
            net::MsgType::kPresentChallengeReply,
            core::ChallengeRequest{})));

    accounting::TransferPayload req;
    req.challenge_id = challenge.id;
    req.from_account = name;
    req.to_account = "pot";
    req.currency = "credits";
    req.amount = 1;
    const testing::Principal& p = world_.principal(name);
    req.identity = core::prove_delegate_pk(
        p.cert, p.identity, challenge.nonce, "bank", world_.clock.now(),
        core::request_digest("transfer", name + "->pot",
                             {{"credits", 1}}));
    RPROXY_ASSIGN_OR_RETURN(
        accounting::TransferReplyPayload reply,
        (call<accounting::TransferReplyPayload>(
            name, "bank", net::MsgType::kTransferRequest,
            net::MsgType::kTransferReply, req)));
    if (!reply.ok) {
      return util::fail(util::ErrorCode::kInternal, "transfer not ok");
    }
    return util::Status::ok();
  }

  World world_;
  std::unique_ptr<accounting::AccountingServer> bank_;
  std::unique_ptr<server::FileServer> file_server_;
  net::EventLoopServer loop_;
  std::uint16_t port_ = 0;
};

// Conservation under concurrency: kClients threads each post
// kTransfersPerClient 1-credit transfers into the shared pot.  Every
// posting must land exactly once.
TEST_F(ConcurrentDispatch, ConcurrentTransfersConserveBalances) {
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, i, &failures] {
      for (int t = 0; t < kTransfersPerClient; ++t) {
        const util::Status posted = transfer_one(i);
        if (!posted.is_ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  const std::uint64_t expected_pot =
      static_cast<std::uint64_t>(kClients) * kTransfersPerClient;
  EXPECT_EQ(bank_->account("pot")->balances().balance("credits"),
            static_cast<std::int64_t>(expected_pot));
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(bank_->account(client_name(i))->balances().balance("credits"),
              static_cast<std::int64_t>(kInitialBalance -
                                        kTransfersPerClient));
  }
  EXPECT_GE(loop_.requests_served(),
            2 * static_cast<std::uint64_t>(kClients) * kTransfersPerClient);
}

// A single-use challenge presented by many racing connections has exactly
// one winner: the replayed presentations must all be rejected.
TEST_F(ConcurrentDispatch, ChallengeReplayHasSingleWinner) {
  const core::Proxy cap = authz::make_capability_pk(
      "client-0", world_.principal("client-0").identity, "file-server",
      {core::ObjectRights{"/doc", {"read"}}}, world_.clock.now(),
      util::kHour);
  auto challenge = call<core::ChallengeRegistry::Challenge>(
      "client-0", "file-server", net::MsgType::kPresentChallengeRequest,
      net::MsgType::kPresentChallengeReply, core::ChallengeRequest{});
  ASSERT_TRUE(challenge.is_ok()) << challenge.status();

  server::AppRequestPayload req;
  req.operation = "read";
  req.object = "/doc";
  req.challenge_id = challenge.value().id;
  core::PresentedCredential cred;
  cred.chain = cap.chain;
  cred.proof =
      core::prove_bearer(cap, challenge.value().nonce, "file-server",
                         world_.clock.now(), req.digest());
  req.credentials.push_back(cred);

  net::Envelope e;
  e.from = "client-0";
  e.to = "file-server";
  e.type = net::MsgType::kAppRequest;
  e.payload = wire::encode_to_bytes(req);

  constexpr int kRacers = 8;
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  threads.reserve(kRacers);
  for (int i = 0; i < kRacers; ++i) {
    threads.emplace_back([this, &e, &successes] {
      auto reply = net::tcp_rpc("127.0.0.1", port_, e);
      if (reply.is_ok() && net::status_of(reply.value()).is_ok()) {
        successes.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(successes.load(), 1);
}

// The same check number certified by racing connections: exactly one hold
// may be placed (the accept-once discipline of §7.7 under concurrency).
// The exactly-once dedup table answers every loser with the WINNER's
// certification — identical terms are one logical certify, however many
// connections carry it — so all racers report success while the bank's
// state records a single hold.
TEST_F(ConcurrentDispatch, ConcurrentCertifySameCheckNumberSingleWinner) {
  constexpr int kRacers = 6;
  constexpr std::uint64_t kCheckNumber = 7;
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  threads.reserve(kRacers);
  for (int i = 0; i < kRacers; ++i) {
    threads.emplace_back([this, &successes] {
      auto challenge = call<core::ChallengeRegistry::Challenge>(
          "client-0", "bank", net::MsgType::kPresentChallengeRequest,
          net::MsgType::kPresentChallengeReply, core::ChallengeRequest{});
      if (!challenge.is_ok()) return;

      accounting::CertifyPayload req;
      req.challenge_id = challenge.value().id;
      req.account = "client-0";
      req.payee = "client-1";
      req.currency = "credits";
      req.amount = 10;
      req.check_number = kCheckNumber;
      req.target_server = "file-server";
      const testing::Principal& p = world_.principal("client-0");
      req.identity = core::prove_delegate_pk(
          p.cert, p.identity, challenge.value().nonce, "bank",
          world_.clock.now(),
          core::request_digest("certify", "client-0", {{"credits", 10}}));
      auto reply = call<accounting::CertifyReplyPayload>(
          "client-0", "bank", net::MsgType::kCertifyRequest,
          net::MsgType::kCertifyReply, req);
      if (reply.is_ok()) successes.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(successes.load(), kRacers);
  EXPECT_EQ(bank_->deduped_replies(), static_cast<std::uint64_t>(kRacers - 1));
  // Exactly one hold's worth of funds is encumbered.
  EXPECT_EQ(bank_->account("client-0")->held("credits"), 10);
}

// Different nodes exercised simultaneously through one transport: Kerberos
// AS exchanges against the KDC interleaved with capability presentations
// at the file server and transfers at the bank.
TEST_F(ConcurrentDispatch, MixedNodesServeConcurrently) {
  constexpr int kPerRole = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;

  for (int i = 0; i < kPerRole; ++i) {
    // KDC role.
    threads.emplace_back([this, i, &failures] {
      kdc::AsRequestPayload req;
      req.client = client_name(i);
      req.nonce = 1000 + static_cast<std::uint64_t>(i);
      req.requested_lifetime = util::kHour;
      auto reply = call<kdc::KdcReplyPayload>(
          client_name(i), "kdc", net::MsgType::kAsRequest,
          net::MsgType::kAsReply, req);
      if (!reply.is_ok()) failures.fetch_add(1);
    });
    // File-server role.
    threads.emplace_back([this, i, &failures] {
      const std::string name = client_name(i);
      const core::Proxy cap = authz::make_capability_pk(
          name, world_.principal(name).identity, "file-server",
          {core::ObjectRights{"/doc", {"read"}}}, world_.clock.now(),
          util::kHour);
      auto challenge = call<core::ChallengeRegistry::Challenge>(
          name, "file-server", net::MsgType::kPresentChallengeRequest,
          net::MsgType::kPresentChallengeReply, core::ChallengeRequest{});
      if (!challenge.is_ok()) {
        failures.fetch_add(1);
        return;
      }
      server::AppRequestPayload req;
      req.operation = "read";
      req.object = "/doc";
      req.challenge_id = challenge.value().id;
      core::PresentedCredential cred;
      cred.chain = cap.chain;
      cred.proof = core::prove_bearer(cap, challenge.value().nonce,
                                      "file-server", world_.clock.now(),
                                      req.digest());
      req.credentials.push_back(cred);
      auto reply = call<server::AppReplyPayload>(
          name, "file-server", net::MsgType::kAppRequest,
          net::MsgType::kAppReply, req);
      if (!reply.is_ok() ||
          util::to_string(reply.value().result) != "concurrent") {
        failures.fetch_add(1);
      }
    });
    // Bank role.
    threads.emplace_back([this, i, &failures] {
      if (!transfer_one(i).is_ok()) failures.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(bank_->account("pot")->balances().balance("credits"), kPerRole);
  EXPECT_EQ(file_server_->audit().allowed_count(),
            static_cast<std::size_t>(kPerRole));
}

// More clients than reactors: connections share reactors, and none may
// deadlock or be dropped.
TEST(ConcurrentDispatchLimits, MoreClientsThanReactors) {
  World world;
  world.add_principal("file-server");
  server::FileServer file_server(world.end_server_config("file-server"));

  net::EventLoopServer::Options options;
  options.workers = 2;
  net::EventLoopServer loop(options);
  loop.attach("file-server", file_server);
  ASSERT_TRUE(loop.start().is_ok());

  constexpr int kRacers = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kRacers);
  for (int i = 0; i < kRacers; ++i) {
    threads.emplace_back([&loop, &failures] {
      for (int t = 0; t < 5; ++t) {
        net::Envelope e;
        e.from = "bob";
        e.to = "file-server";
        e.type = net::MsgType::kPresentChallengeRequest;
        auto reply = net::tcp_rpc("127.0.0.1", loop.port(), e);
        if (!reply.is_ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(loop.requests_served(), 50u);
  loop.stop();
  EXPECT_EQ(loop.active_connections(), 0u);
}

// Verified-credential cache under concurrency: two file servers behind one
// transport, identical except that one has the verification cache enabled
// and the other disabled.  Many threads hammer both with the same mix —
// one chain shared by every thread (maximum cache contention), one
// distinct chain per thread, and a tampered chain — and also present pk
// identity proofs straight to each server's verifier: a valid certificate,
// a tampered one, and the valid one past its expiry.  Every decision must
// agree between the two servers.  Under TSan this also proves the cache's
// internal locking.
TEST(ConcurrentVerifyCache, CacheOnOffDecisionParityUnderLoad) {
  World world;
  world.add_principal("alice");
  world.add_principal("fs-cached");
  world.add_principal("fs-plain");

  server::EndServer::Config cached_config = world.end_server_config("fs-cached");
  cached_config.verify_cache_capacity = 1024;
  server::FileServer cached(std::move(cached_config));
  server::EndServer::Config plain_config = world.end_server_config("fs-plain");
  plain_config.verify_cache_capacity = 0;
  server::FileServer plain(std::move(plain_config));
  for (server::FileServer* fs : {&cached, &plain}) {
    fs->put_file("/doc", "parity");
    fs->acl().add(authz::AclEntry{{"alice"}, {}, {}, {}});
  }

  net::EventLoopServer loop;
  loop.attach("fs-cached", cached);
  loop.attach("fs-plain", plain);
  ASSERT_TRUE(loop.start().is_ok());

  const auto make_chain = [&](std::size_t depth) {
    core::Proxy proxy = core::grant_pk_proxy(
        "alice", world.principal("alice").identity, {}, world.clock.now(),
        util::kHour);
    for (std::size_t i = 1; i < depth; ++i) {
      proxy = core::extend_bearer(proxy, {}, world.clock.now(), util::kHour)
                  .value();
    }
    return proxy;
  };

  constexpr int kThreads = 8;
  constexpr int kRounds = 15;
  const core::Proxy shared = make_chain(4);
  std::vector<core::Proxy> distinct;
  distinct.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) distinct.push_back(make_chain(2));
  core::ProxyChain tampered = shared.chain;
  tampered.certs[1].signature[3] ^= 0x40;
  const crypto::SigningKeyPair alice_key = world.principal("alice").identity;
  const pki::IdentityCert alice_cert = world.principal("alice").cert;
  pki::IdentityCert tampered_cert = alice_cert;
  tampered_cert.expires_at += util::kHour;
  const util::TimePoint now = world.clock.now();
  const util::TimePoint cert_expired = alice_cert.expires_at + 1;

  // Timestamp-mode presentation of `chain` proved with `signer`'s secret;
  // returns the reply's error code (kOk on acceptance).
  const auto present = [&](const PrincipalName& to,
                           const core::ProxyChain& chain,
                           const core::Proxy& signer) {
    server::AppRequestPayload req;
    req.operation = "read";
    req.object = "/doc";
    req.credentials.push_back(core::PresentedCredential{
        chain, core::prove_bearer(signer, {}, to, world.clock.now(),
                                  req.digest())});
    net::Envelope e;
    e.from = "alice";
    e.to = to;
    e.type = net::MsgType::kAppRequest;
    e.payload = wire::encode_to_bytes(req);
    auto reply = net::tcp_rpc("127.0.0.1", loop.port(), e);
    if (!reply.is_ok()) return reply.status().code();
    return net::status_of(reply.value()).code();
  };
  // Delegate pk identity proof for `cert` made and checked at `at`;
  // returns the verdict's error code (kOk on acceptance).
  const auto identify = [&](const server::FileServer& fs,
                            const pki::IdentityCert& cert,
                            util::TimePoint at) {
    const core::ProxyVerifier& verifier = fs.verifier();
    const util::Bytes challenge = util::to_bytes("challenge");
    const core::PossessionProof proof = core::prove_delegate_pk(
        cert, alice_key, challenge, verifier.config().server_name, at, {});
    return verifier.verify_identity(proof, challenge, {}, at).status().code();
  };

  std::atomic<int> disagreements{0};
  std::atomic<int> accepted_pairs{0};
  std::atomic<int> rejected_pairs{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const struct {
          const core::ProxyChain* chain;
          const core::Proxy* signer;
          bool expect_ok;
        } cases[] = {
            {&shared.chain, &shared, true},
            {&distinct[static_cast<std::size_t>(t)].chain,
             &distinct[static_cast<std::size_t>(t)], true},
            {&tampered, &shared, false},
        };
        for (const auto& c : cases) {
          const util::ErrorCode with_cache =
              present("fs-cached", *c.chain, *c.signer);
          const util::ErrorCode without =
              present("fs-plain", *c.chain, *c.signer);
          if (with_cache != without) disagreements.fetch_add(1);
          const bool ok = with_cache == util::ErrorCode::kOk;
          if (ok != c.expect_ok) disagreements.fetch_add(1);
          (ok ? accepted_pairs : rejected_pairs).fetch_add(1);
        }
        const struct {
          const pki::IdentityCert* cert;
          util::TimePoint at;
          bool expect_ok;
        } identities[] = {
            {&alice_cert, now, true},
            {&tampered_cert, now, false},
            {&alice_cert, cert_expired, false},
        };
        for (const auto& c : identities) {
          const util::ErrorCode with_cache = identify(cached, *c.cert, c.at);
          const util::ErrorCode without = identify(plain, *c.cert, c.at);
          if (with_cache != without) disagreements.fetch_add(1);
          const bool ok = with_cache == util::ErrorCode::kOk;
          if (ok != c.expect_ok) disagreements.fetch_add(1);
          (ok ? accepted_pairs : rejected_pairs).fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  loop.stop();

  EXPECT_EQ(disagreements.load(), 0);
  EXPECT_EQ(accepted_pairs.load(), kThreads * kRounds * 3);
  EXPECT_EQ(rejected_pairs.load(), kThreads * kRounds * 3);
  // The cached server actually took the fast path.
  EXPECT_GE(cached.verifier().cache_stats().hits, 1u);
  EXPECT_EQ(plain.verifier().cache_stats().hits, 0u);
}

}  // namespace
}  // namespace rproxy
