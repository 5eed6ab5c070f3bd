// T9 — cost of crash durability (DESIGN.md §5e, EXPERIMENTS.md T9).
//
// Three questions: (1) raw write-ahead journal append throughput by how
// often the writer commits — the disk tax every durable mutation pays;
// (2) what a served mutation costs end-to-end with the journal off and
// on; (3) how long recovery takes as a function of journal length — the
// price of a long tail between checkpoints, and the reason checkpoint()
// exists.
#include <filesystem>
#include <string>

#include "bench_util.hpp"
#include "storage/log_dir.hpp"
#include "testing/tempdir.hpp"

namespace {

using namespace rproxy;

/// Records per commit for BM_JournalAppend's arg: 0 = never commit (the
/// page cache decides), 1 = a commit every 8 records, 2 = every record.
std::int64_t commit_every(std::int64_t arg) {
  switch (arg) {
    case 0:
      return 0;
    case 1:
      return 8;
    default:
      return 1;
  }
}

const char* commit_label(std::int64_t arg) {
  switch (arg) {
    case 0:
      return "append_only";
    case 1:
      return "commit_every_8";
    default:
      return "commit_every_record";
  }
}

/// Raw journal appends of a 256-byte payload, one writer, committing as
/// often as the arg says (commit_every).
void BM_JournalAppend(benchmark::State& state) {
  rproxy::testing::TempDir dir;
  auto writer = storage::JournalWriter::create(dir.sub("bench.wal"), 1, {});
  if (!writer.is_ok()) {
    state.SkipWithError("journal create failed");
    return;
  }
  const std::int64_t every = commit_every(state.range(0));
  const util::Bytes payload(256, 0x5A);
  std::int64_t appended = 0;
  for (auto _ : state) {
    auto lsn = writer.value().append(1, payload);
    if (!lsn.is_ok()) {
      state.SkipWithError("append failed");
      return;
    }
    appended += 1;
    if (every > 0 && appended % every == 0 &&
        !writer.value().commit(lsn.value()).is_ok()) {
      state.SkipWithError("commit failed");
      return;
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
  state.SetLabel(commit_label(state.range(0)));
}
BENCHMARK(BM_JournalAppend)->Arg(0)->Arg(1)->Arg(2);

/// A served local transfer (full challenge + signed request + journaled
/// mutation + reply).  Arg 0 = storage off; 1 = journaled, the reply
/// leaving after its group commit.  The delta is the total durability
/// tax on the serving path.
void BM_DurableTransfer(benchmark::State& state) {
  testing::World world;
  world.add_principal("alice");
  world.add_principal("bank");
  world.net.set_default_latency(0);
  rproxy::testing::TempDir dir;
  auto config = world.accounting_config("bank");
  const bool journaled = state.range(0) == 1;
  if (journaled) {
    config.storage_dir = dir.sub("bank");
    config.storage_key = crypto::SymmetricKey::generate();
  }
  accounting::AccountingServer bank(std::move(config));
  if (!bank.recover().is_ok()) {
    state.SkipWithError("recover failed");
    return;
  }
  world.net.attach("bank", bank);
  bank.open_account("a", "alice",
                    accounting::Balances{{"usd", 1LL << 40}});
  bank.open_account("b", "alice");
  auto alice = world.accounting_client("alice");
  for (auto _ : state) {
    auto status = alice.transfer("bank", "a", "b", "usd", 1);
    benchmark::DoNotOptimize(status);
    if (!status.is_ok()) {
      state.SkipWithError("transfer failed");
      return;
    }
  }
  state.SetLabel(journaled ? "journaled" : "no_journal");
}
BENCHMARK(BM_DurableTransfer)->Arg(0)->Arg(1);

/// Full AccountingServer::recover() against a journal of N records (no
/// snapshot): scan + CRC + decode + re-apply.  Linear in N — this is what
/// bounds restart time and why checkpoints truncate the tail.
void BM_RecoveryReplay(benchmark::State& state) {
  const auto records = static_cast<int>(state.range(0));
  testing::World world;
  world.add_principal("bank");
  rproxy::testing::TempDir dir;
  const crypto::SymmetricKey key = crypto::SymmetricKey::generate();
  const auto config_for = [&] {
    auto config = world.accounting_config("bank");
    config.storage_dir = dir.sub("bank");
    config.storage_key = key;
    return config;
  };
  {
    // Seed the journal: N account-open records, no checkpoint.
    accounting::AccountingServer bank(config_for());
    if (!bank.recover().is_ok()) {
      state.SkipWithError("seed recover failed");
      return;
    }
    for (int i = 0; i < records; ++i) {
      bank.open_account("acct-" + std::to_string(i), "bank",
                        accounting::Balances{{"usd", 1}});
    }
  }
  for (auto _ : state) {
    accounting::AccountingServer bank(config_for());
    auto status = bank.recover();
    benchmark::DoNotOptimize(status);
    if (!status.is_ok()) {
      state.SkipWithError("recover failed");
      return;
    }
  }
  state.counters["records"] =
      benchmark::Counter(static_cast<double>(records));
  state.counters["records_per_s"] = benchmark::Counter(
      static_cast<double>(records), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_RecoveryReplay)->Arg(64)->Arg(512)->Arg(4096);

}  // namespace
