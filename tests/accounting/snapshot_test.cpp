// Sealed accounting snapshots: durability without trusting the storage.
#include <gtest/gtest.h>

#include "crypto/aead.hpp"
#include "testing/env.hpp"

namespace rproxy {
namespace {

using testing::World;

/// Seals raw plaintext exactly as AccountingServer::snapshot does, so the
/// negative-path tests can hand the server structurally-corrupt payloads
/// that pass the AEAD check (storage tampering is caught by the seal; the
/// decoder must survive everything else).
util::Bytes seal_as_snapshot(const crypto::SymmetricKey& key,
                             util::BytesView plaintext) {
  return crypto::aead_seal(key.derive_subkey("accounting:snapshot"),
                           plaintext);
}

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() {
    world_.add_principal("client");
    world_.add_principal("merchant");
    world_.add_principal("bank");
    bank_ = std::make_unique<accounting::AccountingServer>(
        world_.accounting_config("bank"));
    world_.net.attach("bank", *bank_);
    bank_->open_account("client-acct", "client",
                        accounting::Balances{{"usd", 100}, {"pages", 7}});
    bank_->open_account("merchant-acct", "merchant");
  }

  World world_;
  std::unique_ptr<accounting::AccountingServer> bank_;
  crypto::SymmetricKey snapshot_key_ = crypto::SymmetricKey::generate();
};

TEST_F(SnapshotTest, RoundTripPreservesBalancesAndHolds) {
  // Put some state in: a transfer and a certified hold.
  auto client = world_.accounting_client("client");
  ASSERT_TRUE(client
                  .transfer("bank", "client-acct", "merchant-acct", "usd",
                            30)
                  .is_ok());
  ASSERT_TRUE(client
                  .certify("bank", "client-acct", "merchant", "usd", 20,
                           900, "merchant")
                  .is_ok());

  const util::Bytes saved = bank_->snapshot(snapshot_key_);

  // Wreck the live state, then restore.
  bank_->open_account("client-acct", "client", {});
  bank_->open_account("merchant-acct", "merchant", {});
  ASSERT_TRUE(bank_->restore(snapshot_key_, saved).is_ok());

  EXPECT_EQ(bank_->account("client-acct")->balances().balance("usd"), 70);
  EXPECT_EQ(bank_->account("client-acct")->balances().balance("pages"), 7);
  EXPECT_EQ(bank_->account("client-acct")->held("usd"), 20);
  EXPECT_EQ(bank_->account("client-acct")->available("usd"), 50);
  EXPECT_EQ(bank_->account("merchant-acct")->balances().balance("usd"), 30);

  // The restored certified hold still settles the matching check.
  const accounting::Check check = accounting::write_check(
      "client", world_.principal("client").identity,
      AccountId{"bank", "client-acct"}, "merchant", "usd", 20, 900,
      world_.clock.now(), util::kHour);
  auto merchant = world_.accounting_client("merchant");
  ASSERT_TRUE(
      merchant.endorse_and_deposit("bank", check, "merchant-acct").is_ok());
  EXPECT_EQ(bank_->account("client-acct")->held("usd"), 0);
}

TEST_F(SnapshotTest, WrongKeyRejected) {
  const util::Bytes saved = bank_->snapshot(snapshot_key_);
  EXPECT_EQ(
      bank_->restore(crypto::SymmetricKey::generate(), saved).code(),
      util::ErrorCode::kBadSignature);
  // State untouched.
  EXPECT_EQ(bank_->account("client-acct")->balances().balance("usd"), 100);
}

TEST_F(SnapshotTest, TamperedSnapshotRejected) {
  util::Bytes saved = bank_->snapshot(snapshot_key_);
  saved[saved.size() / 2] ^= 1;
  EXPECT_FALSE(bank_->restore(snapshot_key_, saved).is_ok());
}

TEST_F(SnapshotTest, ForeignSnapshotRejected) {
  world_.add_principal("other-bank");
  accounting::AccountingServer other(
      world_.accounting_config("other-bank"));
  other.open_account("x", "client", accounting::Balances{{"usd", 5}});
  const util::Bytes saved = other.snapshot(snapshot_key_);
  EXPECT_EQ(bank_->restore(snapshot_key_, saved).code(),
            util::ErrorCode::kProtocolError);
}

TEST_F(SnapshotTest, TruncatedSealedBlobRejected) {
  util::Bytes saved = bank_->snapshot(snapshot_key_);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, saved.size() / 2,
        saved.size() - 1}) {
    util::Bytes cut(saved.begin(),
                    saved.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_FALSE(bank_->restore(snapshot_key_, cut).is_ok())
        << "kept " << keep << " bytes";
  }
  // State untouched through all of it.
  EXPECT_EQ(bank_->account("client-acct")->balances().balance("usd"), 100);
}

TEST_F(SnapshotTest, UnknownVersionRejectedCleanly) {
  // Only the v6 format the server writes restores; the retired v2–v5
  // layouts are as unknown as a future one.
  for (const char* version :
       {"accounting-snapshot-v2", "accounting-snapshot-v5",
        "accounting-snapshot-v9"}) {
    wire::Encoder enc;
    enc.str(version);
    enc.str("bank");
    const util::Status st =
        bank_->restore(snapshot_key_, seal_as_snapshot(snapshot_key_,
                                                       enc.view()));
    EXPECT_EQ(st.code(), util::ErrorCode::kParseError) << version;
  }
  EXPECT_EQ(bank_->account("client-acct")->balances().balance("usd"), 100);
}

TEST_F(SnapshotTest, TruncatedPlaintextNeverHalfApplies) {
  // A structurally valid prefix — correct version, server name, and an
  // account count promising more data than exists.  The decoder must
  // latch, restore must fail, and NO account may have been replaced.
  wire::Encoder enc;
  enc.str("accounting-snapshot-v6");
  enc.str("bank");
  enc.u32(7);  // seven accounts allegedly follow; none do
  const util::Status st =
      bank_->restore(snapshot_key_, seal_as_snapshot(snapshot_key_,
                                                     enc.view()));
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(bank_->account("client-acct")->balances().balance("usd"), 100);
  EXPECT_EQ(bank_->account("client-acct")->balances().balance("pages"), 7);
}

TEST_F(SnapshotTest, GarbageHoldAmountsNeverHalfApply) {
  // One full account whose hold exceeds its balance — place_hold must
  // refuse, and the failure must not leave the decoded prefix applied.
  wire::Encoder enc;
  enc.str("accounting-snapshot-v6");
  enc.str("bank");
  enc.u32(1);
  enc.str("client-acct");
  enc.str("client");
  accounting::Balances{{"usd", 10}}.encode(enc);
  enc.u32(1);
  enc.str("usd");
  enc.i64(10'000);  // hold far beyond the balance
  const util::Status st =
      bank_->restore(snapshot_key_, seal_as_snapshot(snapshot_key_,
                                                     enc.view()));
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(bank_->account("client-acct")->balances().balance("usd"), 100);
  EXPECT_EQ(bank_->account("client-acct")->held("usd"), 0);
}

TEST_F(SnapshotTest, TrailingGarbageRejected) {
  util::Bytes saved = bank_->snapshot(snapshot_key_);
  // Re-seal the valid plaintext plus trailing junk: dec.finish() must
  // refuse bytes the decoder did not consume.
  auto plain = crypto::aead_open(
      snapshot_key_.derive_subkey("accounting:snapshot"), saved);
  ASSERT_TRUE(plain.is_ok());
  util::Bytes padded = plain.value();
  padded.push_back(0xAB);
  EXPECT_FALSE(
      bank_->restore(snapshot_key_, seal_as_snapshot(snapshot_key_, padded))
          .is_ok());
  EXPECT_EQ(bank_->account("client-acct")->balances().balance("usd"), 100);
}

TEST_F(SnapshotTest, ConservationAcrossSnapshotRestore) {
  const auto total = [&] {
    return bank_->account("client-acct")->balances().balance("usd") +
           bank_->account("merchant-acct")->balances().balance("usd");
  };
  const std::int64_t before = total();
  const util::Bytes saved = bank_->snapshot(snapshot_key_);
  ASSERT_TRUE(bank_->restore(snapshot_key_, saved).is_ok());
  EXPECT_EQ(total(), before);
}

}  // namespace
}  // namespace rproxy
