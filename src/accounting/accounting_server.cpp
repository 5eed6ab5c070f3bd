#include "accounting/accounting_server.hpp"

#include <algorithm>
#include <limits>

#include "core/request.hpp"
#include "crypto/random.hpp"

namespace rproxy::accounting {

using util::ErrorCode;

namespace {
util::Bytes deposit_digest(const DepositPayload& req) {
  return core::request_digest("deposit", req.collect_account,
                              {{req.check.currency, req.amount}});
}

/// Dedup key of a deposit: the check chain's root grantor (the payor who
/// signed the check — available in the clear, authoritatively re-verified
/// on the non-dedup path) plus the check number.  Keying on cleartext is
/// safe: a forged key can only replay a reply that already crossed the
/// wire, never move money.
std::optional<std::pair<PrincipalName, std::uint64_t>> deposit_dedup_key(
    const DepositPayload& req) {
  if (req.check.chain.certs.empty()) return std::nullopt;
  return std::make_pair(req.check.chain.certs.front().grantor,
                        req.check.check_number);
}

/// Infrastructure accounts — the cashier account and the peer:*
/// settlement accounts — belong to the bank, not to a client: the shard
/// gate never refuses them and migration never moves them.
bool is_infrastructure_account(std::string_view name) {
  return name == kCashierAccount || name.starts_with("peer:");
}

/// Amounts are u64 on the wire and in the journal, but the books are
/// int64.  An amount that does not fit, or whose credit would overflow
/// `credited`'s balance, can only come from a corrupt or hostile record;
/// appliers refuse it before any part of the record applies.
util::Status check_amount(std::uint64_t amount,
                          const Account* credited = nullptr,
                          const Currency& currency = {}) {
  const std::int64_t balance =
      credited == nullptr ? 0 : credited->balances().balance(currency);
  if (amount <= static_cast<std::uint64_t>(
                    std::numeric_limits<std::int64_t>::max() -
                    std::max<std::int64_t>(balance, 0))) {
    return util::Status::ok();
  }
  return util::fail(ErrorCode::kParseError,
                    "amount " + std::to_string(amount) +
                        " overflows the books");
}
}  // namespace

void AccountQueryPayload::encode(wire::Encoder& enc) const {
  identity.encode(enc);
  enc.u64(challenge_id);
  enc.str(account);
}

AccountQueryPayload AccountQueryPayload::decode(wire::Decoder& dec) {
  AccountQueryPayload p;
  p.identity = core::PossessionProof::decode(dec);
  p.challenge_id = dec.u64();
  p.account = dec.str();
  return p;
}

void AccountReplyPayload::encode(wire::Encoder& enc) const {
  balances.encode(enc);
  held.encode(enc);
}

AccountReplyPayload AccountReplyPayload::decode(wire::Decoder& dec) {
  AccountReplyPayload p;
  p.balances = Balances::decode(dec);
  p.held = Balances::decode(dec);
  return p;
}

void TransferPayload::encode(wire::Encoder& enc) const {
  identity.encode(enc);
  enc.u64(challenge_id);
  enc.str(from_account);
  enc.str(to_account);
  enc.str(currency);
  enc.u64(amount);
}

TransferPayload TransferPayload::decode(wire::Decoder& dec) {
  TransferPayload p;
  p.identity = core::PossessionProof::decode(dec);
  p.challenge_id = dec.u64();
  p.from_account = dec.str();
  p.to_account = dec.str();
  p.currency = dec.str();
  p.amount = dec.u64();
  return p;
}

void CertifyPayload::encode(wire::Encoder& enc) const {
  identity.encode(enc);
  enc.u64(challenge_id);
  enc.str(account);
  enc.str(payee);
  enc.str(currency);
  enc.u64(amount);
  enc.u64(check_number);
  enc.str(target_server);
  enc.i64(hold_until);
}

CertifyPayload CertifyPayload::decode(wire::Decoder& dec) {
  CertifyPayload p;
  p.identity = core::PossessionProof::decode(dec);
  p.challenge_id = dec.u64();
  p.account = dec.str();
  p.payee = dec.str();
  p.currency = dec.str();
  p.amount = dec.u64();
  p.check_number = dec.u64();
  p.target_server = dec.str();
  p.hold_until = dec.i64();
  return p;
}

void CertifyReplyPayload::encode(wire::Encoder& enc) const {
  certification.encode(enc);
  enc.i64(expires_at);
}

CertifyReplyPayload CertifyReplyPayload::decode(wire::Decoder& dec) {
  CertifyReplyPayload p;
  p.certification = core::ProxyChain::decode(dec);
  p.expires_at = dec.i64();
  return p;
}

void DepositPayload::encode(wire::Encoder& enc) const {
  identity.encode(enc);
  enc.u64(challenge_id);
  check.encode(enc);
  enc.str(collect_account);
  enc.u64(amount);
}

DepositPayload DepositPayload::decode(wire::Decoder& dec) {
  DepositPayload p;
  p.identity = core::PossessionProof::decode(dec);
  p.challenge_id = dec.u64();
  p.check = Check::decode(dec);
  p.collect_account = dec.str();
  p.amount = dec.u64();
  return p;
}

void DepositReplyPayload::encode(wire::Encoder& enc) const {
  enc.boolean(cleared);
  enc.u32(hops);
}

DepositReplyPayload DepositReplyPayload::decode(wire::Decoder& dec) {
  DepositReplyPayload p;
  p.cleared = dec.boolean();
  p.hops = dec.u32();
  return p;
}

void CashierPayload::encode(wire::Encoder& enc) const {
  identity.encode(enc);
  enc.u64(challenge_id);
  enc.str(account);
  enc.str(payee);
  enc.str(currency);
  enc.u64(amount);
}

CashierPayload CashierPayload::decode(wire::Decoder& dec) {
  CashierPayload p;
  p.identity = core::PossessionProof::decode(dec);
  p.challenge_id = dec.u64();
  p.account = dec.str();
  p.payee = dec.str();
  p.currency = dec.str();
  p.amount = dec.u64();
  return p;
}

std::string certified_check_object(std::uint64_t check_number) {
  return "certified-check:" + std::to_string(check_number);
}

void MigrationSpec::encode(wire::Encoder& enc) const {
  enc.u64(migration_id);
  enc.u64(lo);
  enc.u64(hi);
  enc.str(source);
  enc.str(target);
}

MigrationSpec MigrationSpec::decode(wire::Decoder& dec) {
  MigrationSpec s;
  s.migration_id = dec.u64();
  s.lo = dec.u64();
  s.hi = dec.u64();
  s.source = dec.str();
  s.target = dec.str();
  return s;
}

void MigratedAccount::encode(wire::Encoder& enc) const {
  enc.str(name);
  enc.str(owner);
  balances.encode(enc);
  enc.seq(holds, [](wire::Encoder& e, const Hold& h) {
    e.str(h.payor);
    e.u64(h.check_number);
    e.str(h.currency);
    e.u64(h.amount);
    e.i64(h.expires_at);
  });
}

MigratedAccount MigratedAccount::decode(wire::Decoder& dec) {
  MigratedAccount a;
  a.name = dec.str();
  a.owner = dec.str();
  a.balances = Balances::decode(dec);
  a.holds = dec.seq<Hold>([](wire::Decoder& d) {
    Hold h;
    h.payor = d.str();
    h.check_number = d.u64();
    h.currency = d.str();
    h.amount = d.u64();
    h.expires_at = d.i64();
    return h;
  });
  return a;
}

// ---- Journal records ------------------------------------------------------
//
// One payload struct per JournalRecordType (kType).  A record is the only
// way ledger state changes: the live path builds it after validating a
// request and hands it to apply_and_journal_(), which runs its applier and
// appends it; replay (recover(), apply_replicated()) decodes it and runs
// the same applier.  The encodings are the durable on-disk format.

namespace {

struct AccountOpenRecord {
  static constexpr JournalRecordType kType = JournalRecordType::kAccountOpen;
  std::string name;
  PrincipalName owner;
  Balances initial;

  void encode(wire::Encoder& enc) const {
    enc.str(name);
    enc.str(owner);
    initial.encode(enc);
  }
  static AccountOpenRecord decode(wire::Decoder& dec) {
    AccountOpenRecord r;
    r.name = dec.str();
    r.owner = dec.str();
    r.initial = Balances::decode(dec);
    return r;
  }
};

struct RouteSetRecord {
  static constexpr JournalRecordType kType = JournalRecordType::kRouteSet;
  PrincipalName drawee;
  PrincipalName via;

  void encode(wire::Encoder& enc) const {
    enc.str(drawee);
    enc.str(via);
  }
  static RouteSetRecord decode(wire::Decoder& dec) {
    RouteSetRecord r;
    r.drawee = dec.str();
    r.via = dec.str();
    return r;
  }
};

struct TransferRecord {
  static constexpr JournalRecordType kType = JournalRecordType::kTransfer;
  std::string from_account;
  std::string to_account;
  Currency currency;
  std::uint64_t amount = 0;

  void encode(wire::Encoder& enc) const {
    enc.str(from_account);
    enc.str(to_account);
    enc.str(currency);
    enc.u64(amount);
  }
  static TransferRecord decode(wire::Decoder& dec) {
    TransferRecord r;
    r.from_account = dec.str();
    r.to_account = dec.str();
    r.currency = dec.str();
    r.amount = dec.u64();
    return r;
  }
};

struct CertifyRecord {
  static constexpr JournalRecordType kType = JournalRecordType::kCertify;
  PrincipalName payor;
  std::string account;
  Currency currency;
  std::uint64_t amount = 0;
  std::uint64_t check_number = 0;
  util::TimePoint hold_until = 0;
  util::Bytes reply_payload;  ///< replayed to dedup'd retries

  void encode(wire::Encoder& enc) const {
    enc.str(payor);
    enc.str(account);
    enc.str(currency);
    enc.u64(amount);
    enc.u64(check_number);
    enc.i64(hold_until);
    enc.bytes(reply_payload);
  }
  static CertifyRecord decode(wire::Decoder& dec) {
    CertifyRecord r;
    r.payor = dec.str();
    r.account = dec.str();
    r.currency = dec.str();
    r.amount = dec.u64();
    r.check_number = dec.u64();
    r.hold_until = dec.i64();
    r.reply_payload = dec.bytes();
    return r;
  }
};

struct SettleRecord {
  static constexpr JournalRecordType kType = JournalRecordType::kSettleLocal;
  PrincipalName grantor;  ///< check signer = dedup key, certified key
  std::uint64_t check_number = 0;
  std::string payor_account;
  std::string collect_account;
  PrincipalName collect_owner;  ///< owner if the applier must open it
  Currency currency;
  std::uint64_t amount = 0;
  bool from_hold = false;            ///< settled out of a certified hold
  std::uint64_t hold_release = 0;    ///< unhold remainder beyond amount
  util::TimePoint expires_at = 0;    ///< dedup-entry lifetime
  util::Bytes reply_payload;

  void encode(wire::Encoder& enc) const {
    enc.str(grantor);
    enc.u64(check_number);
    enc.str(payor_account);
    enc.str(collect_account);
    enc.str(collect_owner);
    enc.str(currency);
    enc.u64(amount);
    enc.boolean(from_hold);
    enc.u64(hold_release);
    enc.i64(expires_at);
    enc.bytes(reply_payload);
  }
  static SettleRecord decode(wire::Decoder& dec) {
    SettleRecord r;
    r.grantor = dec.str();
    r.check_number = dec.u64();
    r.payor_account = dec.str();
    r.collect_account = dec.str();
    r.collect_owner = dec.str();
    r.currency = dec.str();
    r.amount = dec.u64();
    r.from_hold = dec.boolean();
    r.hold_release = dec.u64();
    r.expires_at = dec.i64();
    r.reply_payload = dec.bytes();
    return r;
  }
};

struct ForeignSettledRecord {
  static constexpr JournalRecordType kType =
      JournalRecordType::kForeignSettled;
  PrincipalName grantor;
  std::uint64_t check_number = 0;
  std::string collect_account;
  PrincipalName collect_owner;
  Currency currency;
  std::uint64_t amount = 0;
  util::TimePoint expires_at = 0;
  util::Bytes reply_payload;

  void encode(wire::Encoder& enc) const {
    enc.str(grantor);
    enc.u64(check_number);
    enc.str(collect_account);
    enc.str(collect_owner);
    enc.str(currency);
    enc.u64(amount);
    enc.i64(expires_at);
    enc.bytes(reply_payload);
  }
  static ForeignSettledRecord decode(wire::Decoder& dec) {
    ForeignSettledRecord r;
    r.grantor = dec.str();
    r.check_number = dec.u64();
    r.collect_account = dec.str();
    r.collect_owner = dec.str();
    r.currency = dec.str();
    r.amount = dec.u64();
    r.expires_at = dec.i64();
    r.reply_payload = dec.bytes();
    return r;
  }
};

struct CashierRecord {
  static constexpr JournalRecordType kType = JournalRecordType::kCashier;
  std::string account;
  Currency currency;
  std::uint64_t amount = 0;

  void encode(wire::Encoder& enc) const {
    enc.str(account);
    enc.str(currency);
    enc.u64(amount);
  }
  static CashierRecord decode(wire::Decoder& dec) {
    CashierRecord r;
    r.account = dec.str();
    r.currency = dec.str();
    r.amount = dec.u64();
    return r;
  }
};

/// kRevocation journals the registry event itself.
struct RevocationRecord {
  static constexpr JournalRecordType kType = JournalRecordType::kRevocation;
  core::RevocationRegistry::Event event;

  void encode(wire::Encoder& enc) const { event.encode(enc); }
  static RevocationRecord decode(wire::Decoder& dec) {
    return {core::RevocationRegistry::Event::decode(dec)};
  }
};

/// kMigrateFreeze and kMigrateOut journal the MigrationSpec itself;
/// kMigrateIn journals the spec plus the imported accounts.
template <JournalRecordType Type>
struct SpecRecord {
  static constexpr JournalRecordType kType = Type;
  MigrationSpec spec;

  void encode(wire::Encoder& enc) const { spec.encode(enc); }
  static SpecRecord decode(wire::Decoder& dec) {
    return {MigrationSpec::decode(dec)};
  }
};
using MigrateFreezeRecord = SpecRecord<JournalRecordType::kMigrateFreeze>;
using MigrateOutRecord = SpecRecord<JournalRecordType::kMigrateOut>;

struct MigrateInRecord {
  static constexpr JournalRecordType kType = JournalRecordType::kMigrateIn;
  MigrationSpec spec;
  std::vector<MigratedAccount> accounts;

  void encode(wire::Encoder& enc) const {
    spec.encode(enc);
    enc.seq(accounts,
            [](wire::Encoder& e, const MigratedAccount& a) { a.encode(e); });
  }
  static MigrateInRecord decode(wire::Decoder& dec) {
    MigrateInRecord r;
    r.spec = MigrationSpec::decode(dec);
    r.accounts = dec.seq<MigratedAccount>(
        [](wire::Decoder& d) { return MigratedAccount::decode(d); });
    return r;
  }
};

/// kReplApply: a record replicated from `source`, journaled locally as
/// effect + watermark in one frame (see apply_replicated()).
struct ReplApplyRecord {
  static constexpr JournalRecordType kType = JournalRecordType::kReplApply;
  PrincipalName source;
  std::uint64_t source_lsn = 0;
  std::uint16_t inner_type = 0;
  util::Bytes inner_payload;

  void encode(wire::Encoder& enc) const {
    enc.str(source);
    enc.u64(source_lsn);
    enc.u16(inner_type);
    enc.bytes(inner_payload);
  }
  static ReplApplyRecord decode(wire::Decoder& dec) {
    ReplApplyRecord r;
    r.source = dec.str();
    r.source_lsn = dec.u64();
    r.inner_type = dec.u16();
    r.inner_payload = dec.bytes();
    return r;
  }
};

/// kIdentityAdopt: the named peer bank's checks settle here now.
struct IdentityAdoptRecord {
  static constexpr JournalRecordType kType = JournalRecordType::kIdentityAdopt;
  PrincipalName name;

  void encode(wire::Encoder& enc) const { enc.str(name); }
  static IdentityAdoptRecord decode(wire::Decoder& dec) {
    return {dec.str()};
  }
};

}  // namespace

// ---- Appliers ------------------------------------------------------------
//
// The only code that changes ledger state (DESIGN.md §5e), one explicit
// specialization of apply_() per record type; they precede every use, as
// C++ requires.

template <>
util::Status AccountingServer::apply_(const AccountOpenRecord& rec,
                                      util::TimePoint /*now*/) {
  open_account_(rec.name, rec.owner, rec.initial);
  return util::Status::ok();
}

template <>
util::Status AccountingServer::apply_(const RouteSetRecord& rec,
                                      util::TimePoint /*now*/) {
  routes_[rec.drawee] = rec.via;
  return util::Status::ok();
}

template <>
util::Status AccountingServer::apply_(const TransferRecord& rec,
                                      util::TimePoint /*now*/) {
  Account* from = find_account_(rec.from_account);
  Account* to = find_account_(rec.to_account);
  if (from == nullptr || to == nullptr) {
    return util::fail(ErrorCode::kParseError,
                      "journaled transfer names an unknown account");
  }
  RPROXY_RETURN_IF_ERROR(check_amount(rec.amount, to, rec.currency));
  RPROXY_RETURN_IF_ERROR(
      from->debit(rec.currency, static_cast<std::int64_t>(rec.amount)));
  to->credit(rec.currency, static_cast<std::int64_t>(rec.amount));
  return util::Status::ok();
}

template <>
util::Status AccountingServer::apply_(const CertifyRecord& rec,
                                      util::TimePoint now) {
  const DedupKey key{rec.payor, rec.check_number};
  if (completed_certifies_.contains(key) || certified_.contains(key)) {
    return util::Status::ok();  // duplicate replay of an applied record
  }
  Account* acct = find_account_(rec.account);
  if (acct == nullptr) {
    return util::fail(ErrorCode::kParseError,
                      "journaled certification names an unknown account");
  }
  RPROXY_RETURN_IF_ERROR(check_amount(rec.amount));
  RPROXY_RETURN_IF_ERROR(
      acct->place_hold(rec.currency, static_cast<std::int64_t>(rec.amount)));
  certified_.put(key, CertifiedHold{rec.payor, rec.account, rec.currency,
                                    rec.amount, rec.hold_until});
  if (config_.enable_dedup) {
    record_completed_(completed_certifies_, key,
                      util::Bytes(rec.reply_payload), rec.hold_until, now);
  }
  return util::Status::ok();
}

template <>
util::Status AccountingServer::apply_(const SettleRecord& rec,
                                      util::TimePoint now) {
  const DedupKey key{rec.grantor, rec.check_number};
  if (config_.enable_dedup && completed_deposits_.contains(key)) {
    return util::Status::ok();  // duplicate replay of an applied record
  }
  Account* payor = find_account_(rec.payor_account);
  if (payor == nullptr) {
    return util::fail(ErrorCode::kParseError,
                      "journaled settlement names an unknown payor account");
  }
  Account* collect = find_account_(rec.collect_account);
  RPROXY_RETURN_IF_ERROR(check_amount(rec.hold_release));
  RPROXY_RETURN_IF_ERROR(check_amount(rec.amount, collect, rec.currency));
  if (rec.from_hold) {
    RPROXY_RETURN_IF_ERROR(payor->debit_held(
        rec.currency, static_cast<std::int64_t>(rec.amount)));
    if (rec.hold_release > 0) {
      payor->release_hold(rec.currency,
                          static_cast<std::int64_t>(rec.hold_release));
    }
    certified_.erase(key);
  } else {
    RPROXY_RETURN_IF_ERROR(
        payor->debit(rec.currency, static_cast<std::int64_t>(rec.amount)));
  }
  if (collect == nullptr) {
    collect = &open_account_(rec.collect_account, rec.collect_owner);
  }
  collect->credit(rec.currency, static_cast<std::int64_t>(rec.amount));
  if (config_.enable_dedup) {
    record_completed_(completed_deposits_, key, util::Bytes(rec.reply_payload),
                      rec.expires_at, now);
  }
  return util::Status::ok();
}

template <>
util::Status AccountingServer::apply_(const ForeignSettledRecord& rec,
                                      util::TimePoint now) {
  const DedupKey key{rec.grantor, rec.check_number};
  if (config_.enable_dedup && completed_deposits_.contains(key)) {
    return util::Status::ok();  // duplicate replay of an applied record
  }
  // The provisional credit was never journaled (a crash mid-collection
  // correctly forgets it), so the record carries the credit it commits.
  Account* collect = find_account_(rec.collect_account);
  RPROXY_RETURN_IF_ERROR(check_amount(rec.amount, collect, rec.currency));
  if (collect == nullptr) {
    collect = &open_account_(rec.collect_account, rec.collect_owner);
  }
  collect->credit(rec.currency, static_cast<std::int64_t>(rec.amount));
  if (config_.enable_dedup) {
    record_completed_(completed_deposits_, key, util::Bytes(rec.reply_payload),
                      rec.expires_at, now);
  }
  return util::Status::ok();
}

template <>
util::Status AccountingServer::apply_(const CashierRecord& rec,
                                      util::TimePoint /*now*/) {
  Account* acct = find_account_(rec.account);
  if (acct == nullptr) {
    return util::fail(ErrorCode::kParseError,
                      "journaled cashier purchase names an unknown account");
  }
  const std::string cashier(kCashierAccount);
  Account* bank = find_account_(cashier);
  RPROXY_RETURN_IF_ERROR(check_amount(rec.amount, bank, rec.currency));
  RPROXY_RETURN_IF_ERROR(
      acct->debit(rec.currency, static_cast<std::int64_t>(rec.amount)));
  if (bank == nullptr) bank = &open_account_(cashier, config_.name);
  bank->credit(rec.currency, static_cast<std::int64_t>(rec.amount));
  return util::Status::ok();
}

template <>
util::Status AccountingServer::apply_(const RevocationRecord& rec,
                                      util::TimePoint /*now*/) {
  // Idempotent: epochs/cutoffs take the max, list entries accumulate — a
  // record also covered by the snapshot merge applies once.
  if (config_.revocation != nullptr) config_.revocation->apply(rec.event);
  return util::Status::ok();
}

template <>
util::Status AccountingServer::apply_(const MigrateFreezeRecord& rec,
                                      util::TimePoint /*now*/) {
  frozen_[rec.spec.migration_id] = rec.spec;
  return util::Status::ok();
}

template <>
util::Status AccountingServer::apply_(const MigrateInRecord& rec,
                                      util::TimePoint /*now*/) {
  // Idempotent under the migration id — unless the dedup ablation is on,
  // in which case a record surviving in both snapshot and journal tail
  // double-credits (the chaos teeth test).
  if (config_.enable_dedup &&
      applied_migrations_.contains(rec.spec.migration_id)) {
    return util::Status::ok();
  }
  for (const MigratedAccount& migrated : rec.accounts) {
    // insert_or_assign: a stale local copy (e.g. a range migrating back)
    // is replaced wholesale by the exporter's authoritative state.
    Account& acct =
        open_account_(migrated.name, migrated.owner, migrated.balances);
    for (const MigratedAccount::Hold& hold : migrated.holds) {
      // The exported balance already includes the held amount; re-placing
      // the hold only re-marks it unavailable.  A hold that no longer fits
      // (possible only under the dedup-off double-import ablation) is
      // dropped rather than wedging recovery.
      if (!check_amount(hold.amount).is_ok() ||
          !acct.place_hold(hold.currency,
                           static_cast<std::int64_t>(hold.amount))
               .is_ok()) {
        continue;
      }
      certified_.put({hold.payor, hold.check_number},
                     CertifiedHold{hold.payor, migrated.name, hold.currency,
                                   hold.amount, hold.expires_at});
    }
  }
  if (config_.enable_dedup) {
    applied_migrations_.insert(rec.spec.migration_id);
  }
  return util::Status::ok();
}

template <>
util::Status AccountingServer::apply_(const MigrateOutRecord& rec,
                                      util::TimePoint /*now*/) {
  for (auto it = accounts_.begin(); it != accounts_.end();) {
    const std::string& name = it->first;
    if (!is_infrastructure_account(name) && rec.spec.covers(name)) {
      certified_.erase_if([&](const DedupKey&, const CertifiedHold& hold) {
        return hold.account == name;
      });
      it = accounts_.erase(it);
    } else {
      ++it;
    }
  }
  frozen_.erase(rec.spec.migration_id);
  return util::Status::ok();
}

template <>
util::Status AccountingServer::apply_(const ReplApplyRecord& rec,
                                      util::TimePoint now) {
  // Effect + watermark apply as one unit, mirroring how they were
  // written.  apply_replicated() unwraps before re-wrapping, so a wrapper
  // never legitimately nests another; one that does is hostile, and
  // refusing it bounds the unwrap at one level.
  if (rec.inner_type == static_cast<std::uint16_t>(ReplApplyRecord::kType)) {
    return util::fail(ErrorCode::kParseError,
                      "replicated record nests a replicated record");
  }
  auto mark = repl_watermarks_.find(rec.source);
  if (rec.source_lsn != 0 && mark != repl_watermarks_.end() &&
      rec.source_lsn <= mark->second) {
    return util::Status::ok();  // already covered (non-idempotent inner
                                // records must not re-apply)
  }
  RPROXY_RETURN_IF_ERROR(apply_record_locked_(
      storage::JournalRecord{0, rec.inner_type, rec.inner_payload}, now));
  std::uint64_t& applied = repl_watermarks_[rec.source];
  applied = std::max(applied, rec.source_lsn);
  return util::Status::ok();
}

template <>
util::Status AccountingServer::apply_(const IdentityAdoptRecord& rec,
                                      util::TimePoint /*now*/) {
  adopted_identities_.insert(rec.name);
  return util::Status::ok();
}

util::Status AccountingServer::apply_record_locked_(
    const storage::JournalRecord& record, const util::TimePoint now) {
  using T = JournalRecordType;
  switch (static_cast<T>(record.type)) {
    case T::kAccountOpen: return replay_<AccountOpenRecord>(record, now);
    case T::kRouteSet: return replay_<RouteSetRecord>(record, now);
    case T::kTransfer: return replay_<TransferRecord>(record, now);
    case T::kCertify: return replay_<CertifyRecord>(record, now);
    case T::kSettleLocal: return replay_<SettleRecord>(record, now);
    case T::kForeignSettled: return replay_<ForeignSettledRecord>(record, now);
    case T::kCashier: return replay_<CashierRecord>(record, now);
    case T::kRevocation: return replay_<RevocationRecord>(record, now);
    case T::kMigrateFreeze: return replay_<MigrateFreezeRecord>(record, now);
    case T::kMigrateIn: return replay_<MigrateInRecord>(record, now);
    case T::kMigrateOut: return replay_<MigrateOutRecord>(record, now);
    case T::kReplApply: return replay_<ReplApplyRecord>(record, now);
    case T::kIdentityAdopt: return replay_<IdentityAdoptRecord>(record, now);
  }
  return util::fail(ErrorCode::kParseError,
                    "journal record " + std::to_string(record.lsn) +
                        " has unknown type " + std::to_string(record.type) +
                        " (written by a newer server?)");
}

template <typename Record>
util::Status AccountingServer::replay_(const storage::JournalRecord& record,
                                       util::TimePoint now) {
  RPROXY_ASSIGN_OR_RETURN(const Record rec,
                          wire::decode_from_bytes<Record>(record.payload));
  return apply_(rec, now);
}

AccountingServer::AccountingServer(Config config)
    : config_(std::move(config)),
      verifier_(core::ProxyVerifier::Config{
          .server_name = config_.name,
          .server_key = std::nullopt,  // accounting is public-key (checks
                                       // must verify across servers)
          .resolver = config_.resolver,
          .pk_root = config_.pk_root,
          .replay_cache = nullptr,
          .max_skew = config_.max_skew,
          .verify_cache_capacity = config_.verify_cache_capacity,
          .verify_cache_ttl = config_.verify_cache_ttl,
          .revocation = config_.revocation,
      }) {
  if (config_.replication_barrier) {
    barrier_ = std::make_shared<
        const std::function<util::Status(std::uint64_t)>>(
        config_.replication_barrier);
  }
}

AccountingServer::~AccountingServer() {
  if (revocation_listener_ != 0 && config_.revocation != nullptr) {
    config_.revocation->remove_listener(revocation_listener_);
  }
}

void AccountingServer::open_account(const std::string& local_name,
                                    const PrincipalName& owner,
                                    Balances initial) {
  std::lock_guard lock(state_mutex_);
  // Setup API: a journal failure here marks the server storage-dead (it
  // will refuse all requests), which is all a void API can do.  The
  // record stays staged until the next commit.
  (void)apply_and_journal_(
      AccountOpenRecord{local_name, owner, std::move(initial)});
}

Account& AccountingServer::open_account_(const std::string& local_name,
                                         const PrincipalName& owner,
                                         Balances initial) {
  Account account(local_name, owner);
  account.balances() = std::move(initial);
  return accounts_.insert_or_assign(local_name, std::move(account))
      .first->second;
}

Account* AccountingServer::account(const std::string& local_name) {
  std::lock_guard lock(state_mutex_);
  return find_account_(local_name);
}

const Account* AccountingServer::account(const std::string& local_name) const {
  std::lock_guard lock(state_mutex_);
  auto it = accounts_.find(local_name);
  return it == accounts_.end() ? nullptr : &it->second;
}

Account* AccountingServer::find_account_(const std::string& local_name) {
  auto it = accounts_.find(local_name);
  return it == accounts_.end() ? nullptr : &it->second;
}

namespace {
constexpr std::string_view kSnapshotSealPurpose = "accounting:snapshot";
/// The one snapshot format snapshot() writes and restore() accepts.
constexpr std::string_view kSnapshotVersion = "accounting-snapshot-v6";
}  // namespace

util::Bytes AccountingServer::snapshot(
    const crypto::SymmetricKey& key) const {
  std::lock_guard lock(state_mutex_);
  return snapshot_locked_(key);
}

util::Bytes AccountingServer::snapshot_locked_(
    const crypto::SymmetricKey& key) const {
  const auto encode_dedup = [](wire::Encoder& e, const DedupTable& table) {
    e.u32(static_cast<std::uint32_t>(table.size()));
    for (const auto& [key, op] : table) {
      e.str(key.first);
      e.u64(key.second);
      e.bytes(op.reply_payload);
      e.i64(op.expires_at);
    }
  };

  wire::Encoder enc;
  enc.str(kSnapshotVersion);
  enc.str(config_.name);
  enc.u32(static_cast<std::uint32_t>(accounts_.size()));
  for (const auto& [name, account] : accounts_) {
    enc.str(name);
    enc.str(account.owner());
    account.balances().encode(enc);
    // Holds, per currency.
    std::uint32_t held_count = 0;
    for (const auto& [currency, amount] : account.balances().all()) {
      held_count += account.held(currency) > 0 ? 1 : 0;
    }
    enc.u32(held_count);
    for (const auto& [currency, amount] : account.balances().all()) {
      if (account.held(currency) > 0) {
        enc.str(currency);
        enc.i64(account.held(currency));
      }
    }
  }
  enc.u32(static_cast<std::uint32_t>(certified_.size()));
  for (const auto& [cert_key, hold] : certified_) {
    enc.str(cert_key.first);
    enc.u64(cert_key.second);
    enc.str(hold.payor);
    enc.str(hold.account);
    enc.str(hold.currency);
    enc.u64(hold.amount);
    enc.i64(hold.expires_at);
  }
  encode_dedup(enc, completed_deposits_);
  encode_dedup(enc, completed_certifies_);
  enc.u32(static_cast<std::uint32_t>(routes_.size()));
  for (const auto& [drawee, via] : routes_) {
    enc.str(drawee);
    enc.str(via);
  }
  // The revocation-registry state, as an opaque blob (empty when no
  // registry is attached).  Restoring MERGES it — registry state is
  // monotonic, so snapshot + journal-tail replay is idempotent.
  {
    wire::Encoder revocation;
    if (config_.revocation != nullptr) {
      config_.revocation->encode_state(revocation);
    }
    enc.bytes(revocation.view());
  }
  // Migration state — active source-side freezes and the target-side
  // set of already-imported migration ids (the exactly-once guard must
  // survive a checkpoint, exactly like the dedup tables).
  enc.u32(static_cast<std::uint32_t>(frozen_.size()));
  for (const auto& [id, spec] : frozen_) spec.encode(enc);
  enc.u32(static_cast<std::uint32_t>(applied_migrations_.size()));
  for (const std::uint64_t id : applied_migrations_) enc.u64(id);
  // Failover state — adopted bank identities and the durable
  // replication watermarks (a restarted standby resumes shipping from its
  // watermark instead of re-bootstrapping; a promoted survivor keeps
  // settling checks drawn on the names it adopted).
  enc.u32(static_cast<std::uint32_t>(adopted_identities_.size()));
  for (const PrincipalName& name : adopted_identities_) enc.str(name);
  enc.u32(static_cast<std::uint32_t>(repl_watermarks_.size()));
  for (const auto& [source, lsn] : repl_watermarks_) {
    enc.str(source);
    enc.u64(lsn);
  }
  return crypto::aead_seal(key.derive_subkey(kSnapshotSealPurpose),
                           enc.view());
}

util::Status AccountingServer::restore(const crypto::SymmetricKey& key,
                                       util::BytesView snapshot) {
  return restore_(key, snapshot, config_.name);
}

util::Status AccountingServer::restore_replica(const PrincipalName& source,
                                               const crypto::SymmetricKey& key,
                                               util::BytesView snapshot,
                                               std::uint64_t snapshot_lsn) {
  RPROXY_RETURN_IF_ERROR(restore_(key, snapshot, source));
  replica_bootstraps_.fetch_add(1);
  {
    std::lock_guard lock(state_mutex_);
    std::uint64_t& mark = repl_watermarks_[source];
    mark = std::max(mark, snapshot_lsn);
  }
  // With local storage, make the restored books + watermark durable NOW:
  // any journal records predating the restore describe a state this
  // replica just abandoned, and replaying them over the restored books on
  // a crash-restart would corrupt it.  A checkpoint seals the restored
  // state and compacts the stale tail away.
  if (log_.has_value() && !storage_dead_.load()) {
    RPROXY_RETURN_IF_ERROR(checkpoint());
  }
  return util::Status::ok();
}

util::Status AccountingServer::restore_(const crypto::SymmetricKey& key,
                                        util::BytesView snapshot,
                                        const PrincipalName& expected_server) {
  RPROXY_ASSIGN_OR_RETURN(
      util::Bytes plain,
      crypto::aead_open(key.derive_subkey(kSnapshotSealPurpose), snapshot));
  wire::Decoder dec(plain);
  const std::string version = dec.str();
  if (version != kSnapshotVersion) {
    return util::fail(ErrorCode::kParseError,
                      "not an accounting snapshot (unknown version '" +
                          version + "')");
  }
  const std::string server = dec.str();
  if (server != expected_server) {
    return util::fail(ErrorCode::kProtocolError,
                      "snapshot belongs to '" + server + "'");
  }

  std::map<std::string, Account> accounts;
  const std::uint32_t account_count = dec.u32();
  for (std::uint32_t i = 0; i < account_count && dec.ok(); ++i) {
    const std::string name = dec.str();
    const PrincipalName owner = dec.str();
    Account account(name, owner);
    account.balances() = Balances::decode(dec);
    const std::uint32_t held_count = dec.u32();
    for (std::uint32_t h = 0; h < held_count && dec.ok(); ++h) {
      const std::string currency = dec.str();
      const std::int64_t amount = dec.i64();
      RPROXY_RETURN_IF_ERROR(account.place_hold(currency, amount));
    }
    accounts.insert_or_assign(name, std::move(account));
  }
  util::ExpiringTable<DedupKey, CertifiedHold> certified;
  const std::uint32_t hold_count = dec.u32();
  for (std::uint32_t i = 0; i < hold_count && dec.ok(); ++i) {
    std::pair<PrincipalName, std::uint64_t> cert_key;
    cert_key.first = dec.str();
    cert_key.second = dec.u64();
    CertifiedHold hold;
    hold.payor = dec.str();
    hold.account = dec.str();
    hold.currency = dec.str();
    hold.amount = dec.u64();
    hold.expires_at = dec.i64();
    certified.put(cert_key, std::move(hold));
  }
  const auto decode_dedup = [&dec]() {
    DedupTable table;
    const std::uint32_t count = dec.u32();
    for (std::uint32_t i = 0; i < count && dec.ok(); ++i) {
      DedupKey key;
      key.first = dec.str();
      key.second = dec.u64();
      CompletedOp op;
      op.reply_payload = dec.bytes();
      op.expires_at = dec.i64();
      table.put(key, std::move(op));
    }
    return table;
  };
  DedupTable deposits = decode_dedup();
  DedupTable certifies = decode_dedup();
  std::map<PrincipalName, PrincipalName> routes;
  const std::uint32_t route_count = dec.u32();
  for (std::uint32_t i = 0; i < route_count && dec.ok(); ++i) {
    const PrincipalName drawee = dec.str();
    const PrincipalName via = dec.str();
    routes[drawee] = via;
  }
  const util::Bytes revocation_state = dec.bytes();
  std::map<std::uint64_t, MigrationSpec> frozen;
  const std::uint32_t frozen_count = dec.u32();
  for (std::uint32_t i = 0; i < frozen_count && dec.ok(); ++i) {
    MigrationSpec spec = MigrationSpec::decode(dec);
    frozen[spec.migration_id] = std::move(spec);
  }
  std::set<std::uint64_t> applied_migrations;
  const std::uint32_t applied_count = dec.u32();
  for (std::uint32_t i = 0; i < applied_count && dec.ok(); ++i) {
    applied_migrations.insert(dec.u64());
  }
  std::set<PrincipalName> adopted;
  const std::uint32_t adopted_count = dec.u32();
  for (std::uint32_t i = 0; i < adopted_count && dec.ok(); ++i) {
    adopted.insert(dec.str());
  }
  std::map<PrincipalName, std::uint64_t> watermarks;
  const std::uint32_t mark_count = dec.u32();
  for (std::uint32_t i = 0; i < mark_count && dec.ok(); ++i) {
    const PrincipalName source = dec.str();
    watermarks[source] = dec.u64();
  }
  RPROXY_RETURN_IF_ERROR(dec.finish());

  // Merge the revocation state BEFORE swapping in the rest: a merge
  // failure (tampered/truncated blob) must leave accounts untouched too.
  if (!revocation_state.empty() && config_.revocation != nullptr) {
    wire::Decoder revocation_dec(revocation_state);
    RPROXY_RETURN_IF_ERROR(
        config_.revocation->merge_state(revocation_dec));
    RPROXY_RETURN_IF_ERROR(revocation_dec.finish());
  }

  std::lock_guard lock(state_mutex_);
  accounts_ = std::move(accounts);
  certified_ = std::move(certified);
  completed_deposits_ = std::move(deposits);
  completed_certifies_ = std::move(certifies);
  routes_ = std::move(routes);
  frozen_ = std::move(frozen);
  applied_migrations_ = std::move(applied_migrations);
  adopted_identities_ = std::move(adopted);
  repl_watermarks_ = std::move(watermarks);
  return util::Status::ok();
}

namespace {
/// Highest LSN this serving thread appended but has not yet committed.
/// Thread-local because the append happens deep inside a handler (under
/// state_mutex_) while the commit must happen in handle() AFTER the lock
/// is released — parking on the group barrier with the state mutex held
/// would serialize every handler on the fsync, which is exactly what
/// group commit exists to avoid.  LSNs are assigned monotonically under
/// state_mutex_, so when a handler appends several records the last LSN
/// covers them all.
thread_local std::uint64_t t_uncommitted_lsn = 0;
}  // namespace

template <typename Record>
util::Status AccountingServer::apply_and_journal_(const Record& record) {
  RPROXY_RETURN_IF_ERROR(apply_(record, config_.clock->now()));
  return journal_append_(record);
}

template <typename Record>
util::Status AccountingServer::journal_append_(const Record& record) {
  if (!log_.has_value()) return util::Status::ok();
  if (storage_dead_.load()) {
    return util::fail(ErrorCode::kUnavailable,
                      "accounting storage already failed");
  }
  util::Result<std::uint64_t> lsn =
      log_->append(static_cast<std::uint16_t>(Record::kType),
                   wire::encode_to_bytes(record));
  if (!lsn.is_ok()) {
    // The mutation this record covers was applied in memory but is NOT
    // durable.  Treat the process as dead: handle() refuses everything
    // from here on, so the divergent in-memory state is never served.
    storage_dead_.store(true);
    return lsn.status();
  }
  t_uncommitted_lsn = lsn.value();
  return util::Status::ok();
}

template <typename Body>
util::Status AccountingServer::journaled_call_(Body&& body) {
  // Clear any LSN an earlier open_account left on this thread
  // (possibly on another server's journal), exactly as handle() does, so
  // only this call's records are committed below.
  t_uncommitted_lsn = 0;
  {
    std::lock_guard lock(state_mutex_);
    RPROXY_RETURN_IF_ERROR(body());
  }
  return commit_pending_();
}

util::Status AccountingServer::recover() {
  if (config_.storage_dir.empty()) return util::Status::ok();
  if (!config_.storage_key.has_value()) {
    return util::fail(ErrorCode::kInternal,
                      "storage_dir is set but storage_key is not");
  }
  storage::LogDir::Config log_config;
  log_config.dir = config_.storage_dir;
  log_config.journal.crash = config_.crash_point;
  storage::LogDir::Recovered recovered;
  RPROXY_ASSIGN_OR_RETURN(storage::LogDir log,
                          storage::LogDir::open(log_config, &recovered));
  if (recovered.snapshot.has_value()) {
    RPROXY_RETURN_IF_ERROR(
        restore(*config_.storage_key, recovered.snapshot->sealed));
  }
  {
    const util::TimePoint now = config_.clock->now();
    std::lock_guard lock(state_mutex_);
    for (const storage::JournalRecord& record : recovered.tail) {
      RPROXY_RETURN_IF_ERROR(apply_record_locked_(record, now));
    }
    log_.emplace(std::move(log));
    storage_dead_.store(false);
  }
  // From here on, every revocation event anyone reports into the shared
  // registry is journaled like any other mutation, so a crash-restarted
  // server re-applies it (snapshot merge + tail replay) before serving.
  // apply()/merge_state() do not re-notify listeners, so replay cannot
  // echo records back into the journal.  The record is durable before the
  // event returns: the listener commits it on the revoking thread (the
  // registry calls listeners outside its lock), after releasing the
  // ledger lock like any handler, and leaves the thread's pending handler
  // LSN as it found it.
  if (config_.revocation != nullptr && revocation_listener_ == 0) {
    revocation_listener_ = config_.revocation->add_listener(
        [this](const core::RevocationRegistry::Event& event) {
          const std::uint64_t pending = t_uncommitted_lsn;
          t_uncommitted_lsn = 0;
          {
            std::lock_guard lock(state_mutex_);
            if (log_.has_value() && !storage_dead_.load()) {
              (void)journal_append_(RevocationRecord{event});
            }
          }
          (void)commit_pending_();
          t_uncommitted_lsn = pending;
        });
  }
  return util::Status::ok();
}

util::Status AccountingServer::checkpoint() {
  std::lock_guard lock(state_mutex_);
  if (!log_.has_value()) {
    return util::fail(ErrorCode::kUnavailable,
                      "no storage directory recovered");
  }
  if (storage_dead_.load()) {
    return util::fail(ErrorCode::kUnavailable,
                      "accounting storage already failed");
  }
  // Seal and publish under one lock hold: the snapshot must cover exactly
  // the records appended so far, with no mutation slipping in between.
  const util::Bytes sealed = snapshot_locked_(*config_.storage_key);
  const util::Status published = log_->checkpoint(sealed);
  if (!published.is_ok()) storage_dead_.store(true);
  return published;
}

util::Status AccountingServer::sync() { return commit_appended_().status(); }

storage::JournalWriter::GroupStats AccountingServer::journal_group_stats()
    const {
  std::lock_guard lock(state_mutex_);
  return log_.has_value() ? log_->group_stats()
                          : storage::JournalWriter::GroupStats{};
}

std::uint64_t AccountingServer::journal_next_lsn() const {
  std::lock_guard lock(state_mutex_);
  return log_.has_value() ? log_->next_lsn() : 1;
}

std::uint64_t AccountingServer::journal_durable_lsn() const {
  std::lock_guard lock(state_mutex_);
  return log_.has_value() ? log_->durable_lsn() : 0;
}

util::Result<storage::LogDir::TailRead>
AccountingServer::journal_read_committed(std::uint64_t from_lsn,
                                         std::size_t max_records) const {
  // Lock order: state_mutex_, then the LogDir rotation lock (shared), then
  // the journal's barrier mutex, held only to copy two frame offsets and
  // the watermark.  checkpoint() takes the first two in the same order
  // (rotation exclusive); an append takes state_mutex_ then the barrier
  // mutex.  The state_mutex_ hold spans one pread of the shipped frames,
  // O(frames shipped); releasing it for the read measured no gain.
  std::lock_guard lock(state_mutex_);
  if (!log_.has_value()) {
    return util::fail(ErrorCode::kUnavailable,
                      "no storage directory recovered");
  }
  return log_->read_committed(from_lsn, max_records);
}

util::Result<std::optional<storage::SnapshotStore::Loaded>>
AccountingServer::latest_snapshot() const {
  std::lock_guard lock(state_mutex_);
  if (!log_.has_value()) {
    return util::fail(ErrorCode::kUnavailable,
                      "no storage directory recovered");
  }
  return log_->latest_snapshot();
}

util::Status AccountingServer::apply_replicated(
    const storage::JournalRecord& record, const PrincipalName& source,
    std::uint64_t source_lsn) {
  // A record already wrapped by an upstream standby (the new primary was
  // itself a standby once — its journal is full of kReplApply frames) is
  // unwrapped and re-stamped with THIS link's source/source_lsn: the
  // inner effect is what replicates, the watermark is per-link.  Only one
  // level is unwrapped; the kReplApply applier refuses a wrapper whose
  // inner record is itself a wrapper.
  ReplApplyRecord wrapper{source, source_lsn, record.type, record.payload};
  if (record.type == static_cast<std::uint16_t>(ReplApplyRecord::kType)) {
    RPROXY_ASSIGN_OR_RETURN(
        ReplApplyRecord wrapped,
        wire::decode_from_bytes<ReplApplyRecord>(record.payload));
    wrapper.inner_type = wrapped.inner_type;
    wrapper.inner_payload = std::move(wrapped.inner_payload);
  }
  if (storage_dead_.load()) {
    // A replica that can no longer persist must not advance its watermark
    // (or ack) as if it could.
    return util::fail(ErrorCode::kUnavailable,
                      "accounting storage already failed");
  }
  // ONE lock hold covers effect + journal + watermark: a concurrent
  // snapshot can never observe the effect without the watermark that
  // makes its resend-safety story true.  Standbys with their own storage
  // journal effect + watermark as one kReplApply frame, so a promoted
  // replica is itself durable AND a restarted one knows where to resume
  // (its LSN space is local).
  return journaled_call_([&] {
    auto mark = repl_watermarks_.find(source);
    if (source_lsn != 0 && mark != repl_watermarks_.end() &&
        source_lsn <= mark->second) {
      // A resend below the watermark is not journaled again: a downstream
      // standby would re-stamp it with a fresh LSN and re-apply it.
      return util::Status::ok();
    }
    return apply_and_journal_(wrapper);
  });
}

std::uint64_t AccountingServer::replication_watermark(
    const PrincipalName& source) const {
  std::lock_guard lock(state_mutex_);
  auto it = repl_watermarks_.find(source);
  return it == repl_watermarks_.end() ? 0 : it->second;
}

util::Status AccountingServer::adopt_identity(const PrincipalName& name) {
  return journaled_call_([&] {
    if (is_local_drawee_locked_(name)) return util::Status::ok();
    return apply_and_journal_(IdentityAdoptRecord{name});
  });
}

bool AccountingServer::identity_adopted(const PrincipalName& name) const {
  std::lock_guard lock(state_mutex_);
  return is_local_drawee_locked_(name);
}

bool AccountingServer::is_local_drawee_locked_(
    const PrincipalName& server) const {
  return server == config_.name || adopted_identities_.contains(server);
}

void AccountingServer::set_replication_barrier(
    std::function<util::Status(std::uint64_t)> barrier) {
  auto next =
      barrier ? std::make_shared<const std::function<util::Status(
                    std::uint64_t)>>(std::move(barrier))
              : std::shared_ptr<
                    const std::function<util::Status(std::uint64_t)>>();
  std::lock_guard lock(barrier_mutex_);
  barrier_ = std::move(next);
}

// --------------------------------------------------------------------------

util::Status AccountingServer::set_route(const PrincipalName& drawee,
                                         const PrincipalName& via) {
  return journaled_call_(
      [&] { return apply_and_journal_(RouteSetRecord{drawee, via}); });
}

util::Status AccountingServer::migration_freeze(const MigrationSpec& spec) {
  if (spec.source != config_.name) {
    return util::fail(ErrorCode::kProtocolError,
                      "freeze addressed to '" + spec.source + "', not '" +
                          config_.name + "'");
  }
  return journaled_call_([&] {
    if (frozen_.contains(spec.migration_id)) return util::Status::ok();
    return apply_and_journal_(MigrateFreezeRecord{spec});
  });
}

util::Result<std::vector<MigratedAccount>> AccountingServer::migration_export(
    const MigrationSpec& spec) const {
  std::lock_guard lock(state_mutex_);
  if (!frozen_.contains(spec.migration_id)) {
    return util::fail(ErrorCode::kProtocolError,
                      "export of migration " +
                          std::to_string(spec.migration_id) +
                          " before its freeze");
  }
  std::vector<MigratedAccount> out;
  for (const auto& [name, account] : accounts_) {
    if (is_infrastructure_account(name) || !spec.covers(name)) continue;
    MigratedAccount migrated;
    migrated.name = name;
    migrated.owner = account.owner();
    migrated.balances = account.balances();
    for (const auto& [cert_key, hold] : certified_) {
      if (hold.account == name) {
        migrated.holds.push_back({hold.payor, cert_key.second, hold.currency,
                                  hold.amount, hold.expires_at});
      }
    }
    out.push_back(std::move(migrated));
  }
  return out;
}

util::Status AccountingServer::migration_import(
    const MigrationSpec& spec, const std::vector<MigratedAccount>& accounts) {
  if (spec.target != config_.name) {
    return util::fail(ErrorCode::kProtocolError,
                      "import addressed to '" + spec.target + "', not '" +
                          config_.name + "'");
  }
  return journaled_call_([&] {
    if (config_.enable_dedup &&
        applied_migrations_.contains(spec.migration_id)) {
      return util::Status::ok();  // re-driven migration: already imported
    }
    return apply_and_journal_(MigrateInRecord{spec, accounts});
  });
}

util::Status AccountingServer::migration_evacuate(const MigrationSpec& spec) {
  if (spec.source != config_.name) {
    return util::fail(ErrorCode::kProtocolError,
                      "evacuate addressed to '" + spec.source + "', not '" +
                          config_.name + "'");
  }
  return journaled_call_([&] {
    const bool has_accounts = std::any_of(
        accounts_.begin(), accounts_.end(), [&](const auto& entry) {
          return !is_infrastructure_account(entry.first) &&
                 spec.covers(entry.first);
        });
    if (!frozen_.contains(spec.migration_id) && !has_accounts) {
      return util::Status::ok();  // already evacuated
    }
    return apply_and_journal_(MigrateOutRecord{spec});
  });
}

bool AccountingServer::migration_applied(std::uint64_t migration_id) const {
  std::lock_guard lock(state_mutex_);
  return applied_migrations_.contains(migration_id);
}

std::size_t AccountingServer::frozen_range_count() const {
  std::lock_guard lock(state_mutex_);
  return frozen_.size();
}

util::Status AccountingServer::commit_pending_() {
  if (t_uncommitted_lsn == 0) return util::Status::ok();
  const std::uint64_t lsn = t_uncommitted_lsn;
  t_uncommitted_lsn = 0;
  // log_ is engaged by recover() before serving starts and stable after.
  const util::Status committed = log_->commit(lsn);
  if (!committed.is_ok()) storage_dead_.store(true);
  return committed;
}

util::Status AccountingServer::shard_gate_(const std::string& account) const {
  if (is_infrastructure_account(account)) return util::Status::ok();
  std::uint64_t version = 0;
  if (config_.shard != nullptr &&
      !config_.shard->owns(config_.name, account, &version)) {
    return util::fail(ErrorCode::kWrongShard,
                      "account '" + account + "' is not homed on shard '" +
                          config_.name + "'",
                      version);
  }
  std::lock_guard lock(state_mutex_);
  for (const auto& [id, spec] : frozen_) {
    if (spec.covers(account)) {
      return util::fail(ErrorCode::kWrongShard,
                        "account '" + account + "' is migrating to shard '" +
                            spec.target + "' (migration " +
                            std::to_string(id) + ")",
                        version);
    }
  }
  return util::Status::ok();
}

std::int64_t AccountingServer::uncollected_total() const {
  std::lock_guard lock(state_mutex_);
  std::int64_t sum = 0;
  for (const auto& [key, pending] : uncollected_) {
    sum += static_cast<std::int64_t>(pending.amount);
  }
  return sum;
}

util::Result<PrincipalName> AccountingServer::authenticate_(
    const core::PossessionProof& identity, std::uint64_t challenge_id,
    util::BytesView request_digest, util::TimePoint now) {
  RPROXY_ASSIGN_OR_RETURN(util::Bytes nonce,
                          challenges_.take(challenge_id, now));
  RPROXY_ASSIGN_OR_RETURN(
      std::vector<PrincipalName> who,
      verifier_.verify_identity(identity, nonce, request_digest, now));
  if (who.empty()) {
    return util::fail(ErrorCode::kProtocolError,
                      "identity proof established no principal");
  }
  return who.front();
}

util::Result<Account*> AccountingServer::authorized_account_(
    const std::string& account, const PrincipalName& who,
    const Operation& right) {
  Account* acct = find_account_(account);
  if (acct == nullptr) {
    return util::fail(ErrorCode::kNotFound, "no account '" + account + "'");
  }
  authz::AuthorityContext authority;
  authority.principals = {who};
  if (!acct->authorizes(authority, right)) {
    return util::fail(ErrorCode::kPermissionDenied,
                      "'" + who + "' may not " + right + " '" + account +
                          "'");
  }
  return acct;
}

net::Envelope AccountingServer::handle(const net::Envelope& request) {
  if (fenced_.load()) {
    // A standby promoted itself under a newer epoch (DESIGN.md §5h): this
    // server's history has forked from the authoritative one, so serving
    // anything — even reads — would expose state the cluster may have
    // rolled past.  kUnavailable (not kFenced) so clients fail over to the
    // promoted standby through the normal retry/re-route machinery.
    return net::make_error_reply(
        request, util::fail(ErrorCode::kUnavailable,
                            "accounting server '" + config_.name +
                                "' is fenced (a newer replication epoch "
                                "exists)"));
  }
  if (storage_dead_.load()) {
    // The write-ahead journal failed mid-append: the in-memory state is
    // ahead of disk, so this "process" is dead until restarted through
    // recover().  Refusing everything (queries included) is what a real
    // crashed process does.
    return net::make_error_reply(
        request,
        util::fail(ErrorCode::kUnavailable,
                   "accounting server '" + config_.name +
                       "' is down (write-ahead journal failed)"));
  }
  // Group-commit barrier (write-ahead rule, DESIGN.md §5b/§5e): a reply
  // must not leave before the fsync covering the records its handler
  // appended.  The handler stashes its highest appended LSN in a
  // thread-local (set inside journal_append_ under state_mutex_); the
  // commit itself runs HERE, outside the lock, so concurrent handlers
  // park on one shared fsync instead of serializing the whole server.
  t_uncommitted_lsn = 0;  // open_account may have left a residue
  net::Envelope reply = handle_dispatch_(request);
  if (!commit_pending_().is_ok()) {
    // The record may or may not be on disk; the in-memory mutation is
    // applied either way.  Same resolution as an append failure: this
    // "process" is dead, the reply is withheld, and the client's retry
    // against a recovered server settles what actually survived.
    return net::make_error_reply(
        request, util::fail(ErrorCode::kUnavailable,
                            "accounting server '" + config_.name +
                                "' is down (group fsync failed)"));
  }
  // Semi-synchronous replication barrier (DESIGN.md §5h): a reply that
  // may show ledger state leaves only after every standby acknowledged the
  // records it may have seen, so the set of acked operations is always a
  // subset of what a promoted standby holds.  Error replies skip the wait
  // — refusals carry no state a failover could lose — and so do challenge
  // replies, which carry a nonce and nothing of the ledger.
  if (reply.type == net::MsgType::kError ||
      reply.type == net::MsgType::kPresentChallengeReply) {
    return reply;
  }
  std::shared_ptr<const std::function<util::Status(std::uint64_t)>> barrier;
  {
    std::lock_guard lock(barrier_mutex_);
    barrier = barrier_;
  }
  if (barrier && *barrier) {
    const util::Status shipped = replication_barrier_(*barrier);
    if (!shipped.is_ok()) {
      // Withhold the reply: the operation may be applied locally, but it
      // is not replicated, so acking it would break acked ⊆ standby-state.
      // The client's retry lands on the promoted standby (or back here
      // once the standbys are reachable) and the dedup tables make it
      // exactly-once either way.
      return net::make_error_reply(
          request,
          shipped.code() == ErrorCode::kFenced
              ? shipped
              : util::fail(ErrorCode::kUnavailable,
                           "accounting server '" + config_.name +
                               "' could not replicate the operation: " +
                               shipped.to_string()));
    }
  }
  return reply;
}

bool AccountingServer::may_block(net::MsgType type) const {
  switch (type) {
    case net::MsgType::kPresentChallengeRequest:
      return false;
    case net::MsgType::kAccountQuery: {
      // set_replication_barrier (and a failover's re-arm) can arm the
      // barrier at any time.  A query judged here just before that runs
      // inline and blocks its reactor for one barrier wait: slower, still
      // correct, since handle() itself re-reads the barrier and the ship
      // goes over the shipper's own net, never this reactor.
      std::lock_guard lock(barrier_mutex_);
      return barrier_ != nullptr && *barrier_;
    }
    default:
      return true;
  }
}

util::Result<std::uint64_t> AccountingServer::commit_appended_() {
  std::uint64_t target = 0;
  {
    std::lock_guard lock(state_mutex_);
    if (!log_.has_value()) return target;
    // Storage died since the caller's own commit: records of other
    // handlers that a reply may have seen can no longer be made durable.
    if (storage_dead_.load()) {
      return util::fail(ErrorCode::kUnavailable,
                        "accounting storage already failed");
    }
    target = log_->next_lsn() - 1;
  }
  // Commit through the shared group barrier, outside state_mutex_, so
  // concurrent barriers and handle()'s own commits share one fsync.
  const util::Status committed = log_->commit(target);
  if (!committed.is_ok()) {
    storage_dead_.store(true);
    return committed;
  }
  return target;
}

util::Status AccountingServer::replication_barrier_(
    const std::function<util::Status(std::uint64_t)>& barrier) {
  // The target is every record appended so far — by this handler or by
  // another one still on its way to commit — since the reply may have seen
  // any of them.  The shipper only sends fsync-covered records (shipped ⊆
  // fsynced), so the target is made durable first.  handle() has already
  // committed this reply's own records, so this commit waits only for what
  // other handlers appended meanwhile.  (Making it the reply's only commit
  // measured slower on clearing, with more ship rounds per write.)
  // The shipper's wait runs outside the lock too: its RPCs (and a
  // simulated network's nested handlers) must not stall local handlers.
  RPROXY_ASSIGN_OR_RETURN(const std::uint64_t target, commit_appended_());
  return barrier(target);
}

net::Envelope AccountingServer::handle_dispatch_(
    const net::Envelope& request) {
  purge_expired_holds_(config_.clock->now());
  switch (request.type) {
    case net::MsgType::kPresentChallengeRequest:
      return net::make_reply(request, net::MsgType::kPresentChallengeReply,
                             challenges_.issue(config_.clock->now()));
    case net::MsgType::kAccountQuery:
      return handle_query_(request);
    case net::MsgType::kTransferRequest:
      return handle_transfer_(request);
    case net::MsgType::kCertifyRequest:
      return handle_certify_(request);
    case net::MsgType::kCheckDeposit:
      return handle_deposit_(request);
    case net::MsgType::kCashierRequest:
      return handle_cashier_(request);
    default:
      return net::make_error_reply(
          request,
          util::fail(ErrorCode::kProtocolError,
                     "accounting server cannot handle this message type"));
  }
}

net::Envelope AccountingServer::handle_query_(const net::Envelope& request) {
  auto parsed = wire::decode_from_bytes<AccountQueryPayload>(request.payload);
  if (!parsed.is_ok()) return net::make_error_reply(request, parsed.status());
  const AccountQueryPayload& req = parsed.value();
  const util::TimePoint now = config_.clock->now();

  const util::Status owned = shard_gate_(req.account);
  if (!owned.is_ok()) return net::make_error_reply(request, owned);

  auto who = authenticate_(req.identity, req.challenge_id,
                           core::request_digest("query", req.account, {}),
                           now);
  if (!who.is_ok()) return net::make_error_reply(request, who.status());

  std::lock_guard lock(state_mutex_);
  auto found = authorized_account_(req.account, who.value(), "query");
  if (!found.is_ok()) return net::make_error_reply(request, found.status());
  const Account* acct = found.value();

  AccountReplyPayload reply;
  reply.balances = acct->balances();
  Balances held;
  for (const auto& [currency, amount] : acct->balances().all()) {
    const std::int64_t h = acct->held(currency);
    if (h > 0) held.credit(currency, h);
  }
  reply.held = held;
  return net::make_reply(request, net::MsgType::kAccountReply, reply);
}

net::Envelope AccountingServer::handle_transfer_(
    const net::Envelope& request) {
  auto parsed = wire::decode_from_bytes<TransferPayload>(request.payload);
  if (!parsed.is_ok()) return net::make_error_reply(request, parsed.status());
  const TransferPayload& req = parsed.value();
  const util::TimePoint now = config_.clock->now();

  // Both sides must be local: a cross-shard transfer rides a check cleared
  // between the shards (ShardRouter does this), never a direct transfer.
  for (const std::string* account : {&req.from_account, &req.to_account}) {
    const util::Status owned = shard_gate_(*account);
    if (!owned.is_ok()) return net::make_error_reply(request, owned);
  }

  auto who = authenticate_(
      req.identity, req.challenge_id,
      core::request_digest("transfer", req.from_account + "->" +
                                           req.to_account,
                           {{req.currency, req.amount}}),
      now);
  if (!who.is_ok()) return net::make_error_reply(request, who.status());

  std::lock_guard lock(state_mutex_);
  auto from = authorized_account_(req.from_account, who.value(), "debit");
  if (!from.is_ok()) return net::make_error_reply(request, from.status());
  if (find_account_(req.to_account) == nullptr) {
    return net::make_error_reply(
        request, util::fail(ErrorCode::kNotFound,
                            "no account '" + req.to_account + "'"));
  }
  // Write-ahead: the reply leaves only once the record is journaled.
  const util::Status moved = apply_and_journal_(TransferRecord{
      req.from_account, req.to_account, req.currency, req.amount});
  if (!moved.is_ok()) return net::make_error_reply(request, moved);

  return net::make_reply(request, net::MsgType::kTransferReply,
                         TransferReplyPayload{true});
}

net::Envelope AccountingServer::handle_certify_(const net::Envelope& request) {
  auto parsed = wire::decode_from_bytes<CertifyPayload>(request.payload);
  if (!parsed.is_ok()) return net::make_error_reply(request, parsed.status());
  const CertifyPayload& req = parsed.value();
  const util::TimePoint now = config_.clock->now();

  const util::Status owned = shard_gate_(req.account);
  if (!owned.is_ok()) return net::make_error_reply(request, owned);

  auto who = authenticate_(req.identity, req.challenge_id,
                           core::request_digest("certify", req.account,
                                                {{req.currency, req.amount}}),
                           now);
  if (!who.is_ok()) return net::make_error_reply(request, who.status());

  const util::TimePoint hold_until =
      req.hold_until > now ? req.hold_until : now + util::kHour;
  const DedupKey dedup_key{who.value(), req.check_number};
  {
    std::lock_guard lock(state_mutex_);
    // Exactly-once: a retried certify (fresh challenge after a lost
    // reply) gets the original certification back instead of a kReplay
    // bounce — the hold it describes is still in place.  Keyed post-
    // authentication, so only the payor can fetch it.
    if (auto done = replay_completed_(completed_certifies_, dedup_key)) {
      return net::make_reply(request, net::MsgType::kCertifyReply,
                             std::move(*done));
    }
    auto acct = authorized_account_(req.account, who.value(), "debit");
    if (!acct.is_ok()) return net::make_error_reply(request, acct.status());
    if (certified_.contains(dedup_key) ||
        completed_deposits_.contains(dedup_key) ||
        accept_once_.seen(who.value(), req.check_number, now)) {
      // Outstanding hold OR a check with this number already cleared within
      // its window (§7.7: the check number is remembered until expiry).
      // The dedup table is the durable memory of a settled number, so a
      // recovered bank refuses it too; accept_once_ starts empty after a
      // restart and is what remains with dedup off.
      return net::make_error_reply(
          request, util::fail(ErrorCode::kReplay,
                              "check number already certified or spent"));
    }

    // The certification proxy: this server asserts, to the target server,
    // that the hold exists.  Delegate proxy for the payor (no secret to
    // transfer).  Signed while still holding the state lock so that
    // hold placement and the dedup record are one atomic step — a racer
    // arriving between them would see the hold but no stored reply and
    // bounce with a spurious kReplay.  (No network I/O happens here, so
    // the never-hold-locks-across-network rule is respected.)  The signed
    // reply rides in the record, so it is built before the hold is placed.
    core::RestrictionSet restrictions;
    restrictions.add(core::AuthorizedRestriction{
        {core::ObjectRights{certified_check_object(req.check_number),
                            {"assert"}}}});
    restrictions.add(core::GranteeRestriction{{who.value()}, 1});
    if (!req.target_server.empty()) {
      restrictions.add(core::IssuedForRestriction{{req.target_server}});
    }
    const core::Proxy certification =
        core::grant_pk_proxy(config_.name, config_.identity_key,
                             std::move(restrictions), now, hold_until - now);

    CertifyReplyPayload reply;
    reply.certification = certification.chain;
    reply.expires_at = certification.expires_at;
    CertifyRecord record{who.value(), req.account,      req.currency,
                         req.amount,  req.check_number, hold_until,
                         wire::encode_to_bytes(reply)};
    // Write-ahead: the certification (hold + signed reply) must be
    // durable before the client can see it, or a crash would forget a
    // hold the payee is about to rely on.
    const util::Status held = apply_and_journal_(record);
    if (!held.is_ok()) return net::make_error_reply(request, held);
    return net::make_reply(request, net::MsgType::kCertifyReply,
                           std::move(record.reply_payload));
  }
}

net::Envelope AccountingServer::handle_cashier_(
    const net::Envelope& request) {
  auto parsed = wire::decode_from_bytes<CashierPayload>(request.payload);
  if (!parsed.is_ok()) return net::make_error_reply(request, parsed.status());
  const CashierPayload& req = parsed.value();
  const util::TimePoint now = config_.clock->now();

  const util::Status owned = shard_gate_(req.account);
  if (!owned.is_ok()) return net::make_error_reply(request, owned);

  auto who = authenticate_(req.identity, req.challenge_id,
                           core::request_digest("cashier", req.account,
                                                {{req.currency, req.amount}}),
                           now);
  if (!who.is_ok()) return net::make_error_reply(request, who.status());

  {
    std::lock_guard lock(state_mutex_);
    auto acct = authorized_account_(req.account, who.value(), "debit");
    if (!acct.is_ok()) return net::make_error_reply(request, acct.status());
    // Funds move NOW — that is what makes the check good as gold.
    // Write-ahead: the funds move must be durable before the bank-signed
    // check leaves the building.  (The check itself is a bearer
    // instrument and is not journaled; a crash before the reply simply
    // never issues it, and replay restores the funded cashier account.)
    const util::Status funded = apply_and_journal_(
        CashierRecord{req.account, req.currency, req.amount});
    if (!funded.is_ok()) return net::make_error_reply(request, funded);
  }

  // The check is drawn on the bank's own cashier account and signed by the
  // bank (outside the state lock) — the payor's identity and account do not
  // appear in it.
  CashierReplyPayload reply;
  reply.check = write_check(
      config_.name, config_.identity_key,
      AccountId{config_.name, std::string(kCashierAccount)}, req.payee,
      req.currency, req.amount, crypto::random_u64(), now, util::kHour);
  return net::make_reply(request, net::MsgType::kCashierReply, reply);
}

net::Envelope AccountingServer::handle_deposit_(const net::Envelope& request) {
  auto parsed = wire::decode_from_bytes<DepositPayload>(request.payload);
  if (!parsed.is_ok()) return net::make_error_reply(request, parsed.status());
  const DepositPayload& req = parsed.value();
  const util::TimePoint now = config_.clock->now();

  // Exactly-once: a duplicated or retried deposit of an already-settled
  // check replays the original reply instead of moving money twice.  The
  // lookup runs BEFORE authentication — a verbatim duplicate's single-use
  // challenge is already consumed, and the stored reply (cleared/hops)
  // discloses nothing the first reply didn't.
  const auto dedup_key = deposit_dedup_key(req);
  if (dedup_key.has_value()) {
    std::lock_guard lock(state_mutex_);
    if (auto done = replay_completed_(completed_deposits_, *dedup_key)) {
      return net::make_reply(request, net::MsgType::kDepositReply,
                             std::move(*done));
    }
  }

  // The collection account must be homed here.  Gated after the dedup
  // lookup on purpose: a replayed deposit settled before a migration moved
  // the account must still get its original reply back.
  {
    const util::Status owned = shard_gate_(req.collect_account);
    if (!owned.is_ok()) return net::make_error_reply(request, owned);
  }

  auto who = authenticate_(req.identity, req.challenge_id,
                           deposit_digest(req), now);
  if (!who.is_ok()) return net::make_error_reply(request, who.status());

  // Drawee dispatch covers adopted identities: after a failover the
  // promoted survivor settles checks drawn on the dead primary's name as
  // its own (the dedup key above is the check's grantor + number, so
  // collections retried across the takeover stay exactly-once).
  // Only completed settlements are remembered in the dedup table (their
  // appliers record the entry): a bounced deposit left no state behind,
  // so retrying it afresh is both safe and desired.
  util::Result<DepositReplyPayload> reply =
      identity_adopted(req.check.payor_account.server)
          ? settle_(req, who.value(), now)
          : collect_foreign_(req, now);
  if (!reply.is_ok()) {
    checks_bounced_ += 1;
    return net::make_error_reply(request, reply.status());
  }
  return net::make_reply(request, net::MsgType::kDepositReply, reply.value());
}

util::Result<DepositReplyPayload> AccountingServer::settle_(
    const DepositPayload& req, const PrincipalName& presenter,
    util::TimePoint now) {
  RPROXY_ASSIGN_OR_RETURN(core::VerifiedProxy verified,
                          verifier_.verify_chain(req.check.chain, now));
  RPROXY_ASSIGN_OR_RETURN(CheckTerms terms,
                          parse_check_terms(req.check, verified));

  // The payor account must (still) be homed here: a check drawn on an
  // account that is frozen for migration — or already handed to another
  // shard by a cutover this server has seen — must bounce instead of
  // debiting state the evacuation is about to delete.
  RPROXY_RETURN_IF_ERROR(shard_gate_(terms.payor_local_account));

  // Evaluate the check's restrictions as the drawee: grantee chain (the
  // presenter plus every identity-signed endorsement, plus ourselves as the
  // final collector), issued-for, quota against the drawn amount, and the
  // accept-once check number.
  core::RequestContext ctx;
  // Evaluate issued-for against the name the check was DRAWN on (== this
  // server, or an identity it adopted in a takeover — the dispatch in
  // handle_deposit_ guarantees one of the two, and parse_check_terms
  // cross-checked the name against the signed restriction).
  ctx.end_server = terms.drawee_server;
  ctx.operation = "debit";
  ctx.object = account_object(terms.payor_local_account);
  ctx.amounts = {{terms.currency, req.amount}};
  ctx.now = now;
  ctx.effective_identities = verified.audit_trail;
  ctx.effective_identities.push_back(presenter);
  ctx.effective_identities.push_back(config_.name);
  ctx.asserted_groups = {};
  ctx.grantor = verified.grantor;
  ctx.credential_expiry = verified.expires_at;
  ctx.accept_once = &accept_once_;
  RPROXY_RETURN_IF_ERROR(
      verified.effective_restrictions.evaluate(ctx));

  std::lock_guard lock(state_mutex_);
  // A check whose signer may not debit the account it names is misdrawn.
  RPROXY_RETURN_IF_ERROR(authorized_account_(terms.payor_local_account,
                                             verified.grantor, "debit")
                             .status());

  SettleRecord record;
  record.grantor = verified.grantor;
  record.check_number = terms.check_number;
  record.payor_account = terms.payor_local_account;
  record.collect_account = req.collect_account;
  record.currency = terms.currency;
  record.amount = req.amount;
  record.expires_at =
      req.check.expires_at > now ? req.check.expires_at : now + util::kHour;

  // Resolve the collection account BEFORE moving any money, so a deposit
  // naming a bad account bounces cleanly instead of stranding the debit.
  // Settlement accounts for peer accounting servers are auto-created (by
  // the applier, under the owner the record names).
  if (const Account* collect = find_account_(req.collect_account)) {
    record.collect_owner = collect->owner();
  } else if (req.collect_account.starts_with("peer:")) {
    record.collect_owner = presenter;
  } else {
    return util::fail(ErrorCode::kNotFound,
                      "no collection account '" + req.collect_account + "'");
  }

  // Certified check?  Settle from the hold; any remainder is released.
  if (auto it = certified_.find({verified.grantor, terms.check_number});
      it != certified_.end()) {
    record.from_hold = true;
    if (it->second.amount > req.amount) {
      record.hold_release = it->second.amount - req.amount;
    }
  }

  DepositReplyPayload reply;
  reply.cleared = true;
  reply.hops = 0;
  record.reply_payload = wire::encode_to_bytes(reply);
  // Write-ahead: the settlement and its dedup entry are durable before the
  // cleared reply can exist.
  RPROXY_RETURN_IF_ERROR(apply_and_journal_(record));
  checks_cleared_ += 1;
  return reply;
}

util::Result<DepositReplyPayload> AccountingServer::collect_foreign_(
    const DepositPayload& req, util::TimePoint now) {
  // Signature-verify the chain before crediting anything; restriction
  // evaluation belongs to the drawee.
  RPROXY_ASSIGN_OR_RETURN(core::VerifiedProxy verified,
                          verifier_.verify_chain(req.check.chain, now));
  RPROXY_ASSIGN_OR_RETURN(CheckTerms terms,
                          parse_check_terms(req.check, verified));

  const auto pending_key =
      std::make_pair(terms.drawee_server, terms.check_number);
  const DedupKey dedup_key{verified.grantor, terms.check_number};
  PrincipalName next;
  {
    // Provisional credit under the state lock; the lock is NOT held across
    // the collection RPC below (two banks collecting from each other in
    // parallel would deadlock, and a slow drawee must not stall this node).
    std::lock_guard lock(state_mutex_);
    // Re-check the dedup table: a retry that missed it in handle_deposit_
    // while its original was still collecting must not collect again now
    // that the original has settled (that lock hold erased the
    // uncollected_ guard and recorded the entry together).
    if (auto done = replay_completed_(completed_deposits_, dedup_key)) {
      return wire::decode_from_bytes<DepositReplyPayload>(*done);
    }
    if (uncollected_.contains(pending_key)) {
      // Another thread is already collecting this very check.
      return util::fail(ErrorCode::kReplay,
                        "check is already being collected");
    }
    Account* collect = find_account_(req.collect_account);
    if (collect == nullptr) {
      // Settlement accounts for peer accounting servers (multi-hop
      // clearing) are auto-created, like in settle_(); unjournaled, as
      // part of the provisional credit (the kForeignSettled applier opens
      // the account on replay).
      if (!req.collect_account.starts_with("peer:")) {
        return util::fail(ErrorCode::kNotFound, "no collection account '" +
                                                    req.collect_account + "'");
      }
      collect =
          &open_account_(req.collect_account, req.collect_account.substr(5));
    }
    RPROXY_RETURN_IF_ERROR(check_amount(req.amount, collect, terms.currency));

    // "marks the resources added to S's account as uncollected"
    collect->credit(terms.currency, static_cast<std::int64_t>(req.amount));
    uncollected_[pending_key] =
        Uncollected{req.collect_account, terms.currency, req.amount};

    // "adds its own endorsement and forwards the check": an explicit
    // clearing route wins; otherwise ask the shard directory whether the
    // drawee's name has a failover successor (a promoted standby serving
    // the dead primary's ring arcs collects its checks too); otherwise
    // collect from the drawee directly.
    if (auto it = routes_.find(terms.drawee_server); it != routes_.end()) {
      next = it->second;
    } else {
      PrincipalName successor;
      if (config_.shard != nullptr) {
        successor = config_.shard->successor(terms.drawee_server);
      }
      next = successor.empty() ? terms.drawee_server : successor;
    }
  }

  const auto undo = [&]() {
    std::lock_guard lock(state_mutex_);
    if (Account* collect = find_account_(req.collect_account)) {
      (void)collect->debit(terms.currency,
                           static_cast<std::int64_t>(req.amount));
    }
    uncollected_.erase(pending_key);
  };
  auto endorsed = endorse_check(req.check, config_.name,
                                config_.identity_key, next, now);
  if (!endorsed.is_ok()) {
    undo();
    return endorsed.status();
  }

  // Collect from the next server as an authenticated client.  The whole
  // challenge+deposit exchange retries as a unit on transport errors: a
  // lost reply leaves the peer's challenge consumed, so each attempt
  // fetches a fresh challenge and re-proves identity.  If the lost-reply
  // deposit actually settled, the peer's dedup table replays its original
  // reply — exactly-once end to end.
  auto forwarded = net::with_retries(
      *config_.net, config_.collect_retry,
      [&]() -> util::Result<DepositReplyPayload> {
        RPROXY_ASSIGN_OR_RETURN(
            core::ChallengeRegistry::Challenge challenge,
            (net::call<core::ChallengeRegistry::Challenge>(
                *config_.net, config_.name, next,
                net::MsgType::kPresentChallengeRequest,
                net::MsgType::kPresentChallengeReply,
                core::ChallengeRequest{})));
        DepositPayload forward;
        forward.check = endorsed.value();
        forward.collect_account = "peer:" + config_.name;
        forward.amount = req.amount;
        forward.challenge_id = challenge.id;
        forward.identity = core::prove_delegate_pk(
            config_.identity_cert, config_.identity_key, challenge.nonce,
            next, config_.clock->now(), deposit_digest(forward));
        return net::call<DepositReplyPayload>(
            *config_.net, config_.name, next, net::MsgType::kCheckDeposit,
            net::MsgType::kDepositReply, forward);
      });
  if (!forwarded.is_ok()) {
    // Check returned (insufficient resources, forged, unreachable after
    // all retries, or misdrawn): undo the provisional credit and surface
    // the bounce.
    undo();
    return forwarded.status();
  }

  DepositReplyPayload reply;
  reply.cleared = true;
  reply.hops = forwarded.value().hops + 1;

  {
    // Write-ahead commit of the collection, in ONE lock hold with the
    // guard's erasure and the dedup entry the applier records, so a retry
    // sees either the guard or the entry, never neither.  The provisional
    // credit was never journaled (a crash mid-collection forgets it; the
    // client retries and the drawee's dedup table replays the settlement),
    // so this record carries the credit and its applier performs it.
    std::lock_guard lock(state_mutex_);
    uncollected_.erase(pending_key);
    ForeignSettledRecord record;
    record.grantor = verified.grantor;
    record.check_number = terms.check_number;
    record.collect_account = req.collect_account;
    record.currency = terms.currency;
    record.amount = req.amount;
    record.expires_at =
        req.check.expires_at > now ? req.check.expires_at : now + util::kHour;
    record.reply_payload = wire::encode_to_bytes(reply);
    Account* collect = find_account_(req.collect_account);
    if (collect != nullptr) record.collect_owner = collect->owner();
    const util::Status committed = apply_and_journal_(record);
    // Retire the provisional credit the record's credit replaces; after
    // that credit this cannot fail, even if the payee spent the funds.
    if (collect != nullptr) {
      (void)collect->balances().debit(terms.currency,
                                      static_cast<std::int64_t>(req.amount));
    }
    RPROXY_RETURN_IF_ERROR(committed);
  }
  checks_cleared_ += 1;
  return reply;
}

void AccountingServer::purge_expired_holds_(util::TimePoint now) {
  std::lock_guard lock(state_mutex_);
  certified_.purge(now, [&](const CertifiedHold& hold) {
    if (Account* acct = find_account_(hold.account)) {
      acct->release_hold(hold.currency,
                         static_cast<std::int64_t>(hold.amount));
    }
  });
  // Dedup entries die with their check — §7.7's "until the expiration
  // time on the check" applies to the replayed reply just as it does to
  // the remembered check number.
  for (DedupTable* table : {&completed_deposits_, &completed_certifies_}) {
    table->purge(now);
  }
}

std::optional<util::Bytes> AccountingServer::replay_completed_(
    const DedupTable& table, const DedupKey& key) {
  if (!config_.enable_dedup) return std::nullopt;
  auto it = table.find(key);
  if (it == table.end()) return std::nullopt;
  deduped_replies_ += 1;
  return it->second.reply_payload;
}

void AccountingServer::record_completed_(DedupTable& table, DedupKey key,
                                         util::Bytes reply_payload,
                                         util::TimePoint expires_at,
                                         util::TimePoint now) {
  if (table.size() >= config_.dedup_capacity) {
    table.purge(now);
    // Backstop when nothing has expired: evict the entry closest to
    // expiry (it is the one a retry is least likely to still need).
    if (table.size() >= config_.dedup_capacity) table.evict_earliest();
  }
  table.put(key, CompletedOp{std::move(reply_payload), expires_at});
}

}  // namespace rproxy::accounting
