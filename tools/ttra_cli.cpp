// ttra — command-line driver for the transaction-time algebraic language.
//
//   ttra run <script> [--db <file>] [--save <file>] [--lax] [--optimize]
//                     [--explain] [--wal-dir <dir>] [--fresh] [--recover]
//                     [--group-commit] [--sessions <n>] [--batch <k>]
//                     [--shards <n>]
//   ttra check <script> [--json] [--werror] [--help]
//   ttra describe --db <file>
//   ttra vacuum --db <file> --relation <name> --before <txn>
//               [--archive <file>] [--save <file>]
//   ttra vacuum --wal-dir <dir>
//   ttra recover --wal-dir <dir> [--save <file>]
//   ttra fsck --wal-dir <dir> [--json] [--repair]
//   ttra modelcheck [--scenario <name|all>] [--preemptions <n>]
//                   [--max-schedules <n>] [--seeded-bug]
//                   [--replay <decisions>]
//
// `check` runs the static diagnostics engine without executing anything:
// every error and warning in the script is reported with its source span
// and registry code (human-readable by default, machine-readable with
// --json). Exit codes: 0 clean (warnings allowed unless --werror), 1
// errors or warnings-under---werror, 2 usage / unreadable script. See
// `ttra check --help`.
//
// `run` executes a script of language statements against an empty database
// or one loaded with --db, printing every show() result; --save persists
// the resulting database. --optimize rewrites each expression with the
// algebraic optimizer before evaluation; --explain prints each statement's
// operator tree (after optimization, if enabled) without special casing.
//
// With --wal-dir, `run` executes durably: state is recovered from the
// directory's compact checkpoint + write-ahead log, and every update is
// logged and fsync'ed before it is acknowledged, so a crash mid-script
// loses nothing that was reported committed. --fresh discards any
// previous state in the directory first; --recover prints a recovery
// report before running.
// `recover` just recovers, reports, and (with --save) exports a plain
// database file. It refuses mid-log corruption (intact records stranded
// beyond a damaged one) instead of silently replaying a hole; `fsck`
// inspects the checkpoint + WAL, and with --repair quarantines damaged
// bytes to <wal>.quarantine and truncates to the last valid prefix so
// recover succeeds. Both share a documented exit-code table (see
// `ttra fsck --help`): 0 clean, 1 torn-tail/repaired, 3 needs-repair,
// 4 unrecoverable, 2 usage.
//
// With --group-commit (or --sessions, --batch, --shards), `run` goes
// through the group-commit executor instead: updates are enqueued to the
// writer thread and group-committed — one fsync per batch of up to
// --batch statements — while show statements drain the pipeline and are
// evaluated on --sessions concurrent reader sessions pinned at the same
// epoch, which must all agree. Requires --wal-dir.
//
// --shards N (default 1, at most 1024) partitions the durability pipeline
// across N WAL+writer shards (relations are routed to their home shard by
// name hash; cross-shard sentences two-phase through durable prepare
// markers) while keeping one globally ordered transaction chain. The
// directory remembers its shard count (MANIFEST); `recover` and `fsck`
// detect the sharded layout automatically. A directory holding a
// single-writer wal.log is refused; recover it with `ttra recover` or
// start in a fresh directory. Likewise a plain --wal-dir run refuses a
// directory holding a MANIFEST. Malformed counts exit 2.
//
// Durable checkpoints use the compact layout (DESIGN.md §16):
// per-relation delta-encoded segment files chained by segments.manifest.
// A directory holding a legacy full-image checkpoint.db without that
// manifest is refused by `run` and `recover` and reported unrecoverable by
// `fsck`; nothing touches it. `vacuum --wal-dir` compacts a directory
// online — it rewrites every segment chain to a single keyframe,
// collapses the manifest chain to one full record, and truncates the WAL,
// all without blocking pinned readers.
//
// Every flag is either a switch or takes one value; an unknown --flag is
// a usage error (exit 2), so a misspelt switch cannot swallow the next
// argument.
//
// `modelcheck` runs the deterministic schedule explorer (src/modelcheck)
// over the commit-protocol scenarios: every interleaving of the scaled-down
// executors within the preemption bound is executed and the protocol
// invariants checked on each. Exit 0 = every explored schedule clean; 1 =
// a violating schedule was found (its trace and a --replay decision string
// are printed); 2 = usage. With --seeded-bug the sharded scenario runs
// with a deliberately broken durability watermark and the exit codes
// invert: 0 = the bug was caught (expected), 1 = it escaped.

#include <algorithm>
#include <charconv>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "lang/analyzer.h"
#include "modelcheck/explore.h"
#include "modelcheck/scenarios.h"
#include "lang/check.h"
#include "lang/evaluator.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "optimizer/rewriter.h"
#include "rollback/durable_executor.h"
#include "rollback/persistence.h"
#include "rollback/sharded_executor.h"
#include "rollback/vacuum.h"
#include "storage/env.h"
#include "storage/salvage.h"

namespace {

using namespace ttra;

int Fail(const std::string& message) {
  std::cerr << "ttra: " << message << "\n";
  return 1;
}

// Usage errors exit 2, distinct from "the command ran and failed" (1) —
// the same split the fsck/recover exit codes document.
int UsageError(const std::string& message) {
  std::cerr << "ttra: " << message << "\n";
  return 2;
}

struct Flags {
  std::vector<std::string> positional;
  std::map<std::string, std::string> values;  // --key value
  bool lax = false;
  bool optimize = false;
  bool explain = false;
  bool group_commit = false;
  bool fresh = false;
  bool recover = false;
  bool json = false;
  bool werror = false;
  bool help = false;
  bool repair = false;
  bool seeded_bug = false;
};

/// The flags that take a value (`--key value`).
constexpr std::string_view kValueFlags[] = {
    "archive", "batch", "before", "db", "max-schedules", "max-steps",
    "preemptions", "relation", "replay", "save", "scenario", "sessions",
    "shards", "wal-dir"};

bool ParseFlags(int argc, char** argv, Flags& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--lax") {
      flags.lax = true;
    } else if (arg == "--optimize") {
      flags.optimize = true;
    } else if (arg == "--explain") {
      flags.explain = true;
    } else if (arg == "--group-commit") {
      flags.group_commit = true;
    } else if (arg == "--fresh") {
      flags.fresh = true;
    } else if (arg == "--recover") {
      flags.recover = true;
    } else if (arg == "--json") {
      flags.json = true;
    } else if (arg == "--werror") {
      flags.werror = true;
    } else if (arg == "--help") {
      flags.help = true;
    } else if (arg == "--repair") {
      flags.repair = true;
    } else if (arg == "--seeded-bug") {
      flags.seeded_bug = true;
    } else if (arg.rfind("--", 0) == 0) {
      if (std::find(std::begin(kValueFlags), std::end(kValueFlags),
                    arg.substr(2)) == std::end(kValueFlags)) {
        std::cerr << "ttra: unknown flag " << arg << "\n";
        return false;
      }
      if (i + 1 >= argc) {
        std::cerr << "ttra: flag " << arg << " needs a value\n";
        return false;
      }
      flags.values[arg.substr(2)] = argv[++i];
    } else {
      flags.positional.push_back(arg);
    }
  }
  return true;
}

/// Reads the count flag --<key> into `value`, leaving it untouched when
/// the flag is absent. Only decimal digits are a count: a sign, trailing
/// text or overflow makes this return false (callers exit with a usage
/// error).
template <typename Count>
bool CountFlag(const Flags& flags, const std::string& key, Count& value) {
  auto it = flags.values.find(key);
  if (it == flags.values.end()) return true;
  const std::string& text = it->second;
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  // All digits, so from_chars consumes the whole text unless it overflows
  // (and then leaves `value` untouched).
  return std::from_chars(text.data(), text.data() + text.size(), value).ec ==
         std::errc();
}

Result<Database> LoadOrEmpty(const Flags& flags) {
  auto it = flags.values.find("db");
  if (it == flags.values.end()) return Database();
  return LoadDatabase(it->second);
}

int SaveIfRequested(const Database& db, const Flags& flags) {
  auto it = flags.values.find("save");
  if (it == flags.values.end()) return 0;
  Status status = SaveDatabase(db, it->second);
  if (!status.ok()) return Fail("save failed: " + status.ToString());
  std::cout << "saved database to " << it->second << "\n";
  return 0;
}

/// Applies the optimizer to the expression inside a statement, leaving
/// non-expression statements untouched. The live database supplies exact
/// abstract facts (AbsStateFromDatabase), unlocking the facts-driven
/// rewrites (ρ-fold, ∅-pruning, constant folding) on top of the algebraic
/// ones — sound here because the statement evaluates against `db` itself.
lang::Stmt OptimizeStmt(const lang::Stmt& stmt, const lang::Catalog& catalog,
                        const Database& db) {
  const lang::AbsState facts = lang::AbsStateFromDatabase(db);
  if (std::holds_alternative<lang::ModifyStateStmt>(stmt)) {
    const auto& s = std::get<lang::ModifyStateStmt>(stmt);
    return lang::ModifyStateStmt{
        s.name, optimizer::OptimizeWithFacts(s.expr, catalog, facts)};
  }
  if (std::holds_alternative<lang::ShowStmt>(stmt)) {
    const auto& s = std::get<lang::ShowStmt>(stmt);
    return lang::ShowStmt{optimizer::OptimizeWithFacts(s.expr, catalog, facts)};
  }
  return stmt;
}

/// Translates a non-show language statement into the algebra's command
/// domain, evaluating any modify_state expression against `db`.
Result<Command> StmtToCommand(const lang::Stmt& stmt, const Database& db) {
  if (const auto* s = std::get_if<lang::DefineRelationStmt>(&stmt)) {
    return Command(DefineRelationCmd{s->name, s->type, s->schema});
  }
  if (const auto* s = std::get_if<lang::ModifyStateStmt>(&stmt)) {
    TTRA_ASSIGN_OR_RETURN(lang::StateValue value,
                          lang::EvalExpr(s->expr, db));
    if (auto* snapshot = std::get_if<SnapshotState>(&value)) {
      return Command(ModifySnapshotCmd{s->name, std::move(*snapshot)});
    }
    return Command(ModifyHistoricalCmd{
        s->name, std::get<HistoricalState>(std::move(value))});
  }
  if (const auto* s = std::get_if<lang::DeleteRelationStmt>(&stmt)) {
    return Command(DeleteRelationCmd{s->name});
  }
  if (const auto* s = std::get_if<lang::ModifySchemaStmt>(&stmt)) {
    return Command(ModifySchemaCmd{s->name, s->schema});
  }
  return InvalidArgumentError("show statements are not commands");
}

void ReportRecovery(TransactionNumber txn,
                    const DurableExecutor::RecoveryInfo& info) {
  std::cout << "recovered transaction " << txn << " (checkpoint at "
            << info.checkpoint_txn << ", " << info.replayed_records
            << " wal record(s) replayed"
            << (info.torn_tail ? ", torn tail truncated" : "") << ")\n";
}

void ReportRecovery(const DurableExecutor& exec) {
  ReportRecovery(exec.transaction_number(), exec.last_recovery());
}

void ReportRecovery(TransactionNumber txn,
                    const ShardedExecutor::RecoveryInfo& info) {
  std::cout << "recovered transaction " << txn << " (checkpoint at "
            << info.checkpoint_txn << ", " << info.shards << " shard(s), "
            << info.replayed_batches << " batch(es) / "
            << info.replayed_sentences << " sentence(s) replayed";
  if (info.dropped_in_doubt > 0) {
    std::cout << ", " << info.dropped_in_doubt
              << " in-doubt batch(es) dropped";
  }
  if (info.torn_tails > 0) {
    std::cout << ", " << info.torn_tails << " torn tail(s) truncated";
  }
  std::cout << ")\n";
}

Status ResetWalDir(Env* env, const std::string& wal_dir) {
  // --fresh must not half-delete a legacy directory that the executors
  // would then refuse: refuse it whole, before anything is removed.
  TTRA_RETURN_IF_ERROR(RefuseLegacyLayout(*env, wal_dir));
  Result<std::vector<std::string>> entries = env->List(wal_dir);
  if (!entries.ok()) return Status::Ok();  // no directory, nothing to reset
  // Every file a layout owns, and its quarantined remains: every
  // generation of the shard WALs and coordinator log of a sharded
  // directory (whatever its MANIFEST says, which may be the corrupt part),
  // the single-writer log, the checkpoint
  // manifest chain and every segment file (including generations a
  // damaged manifest no longer references). The MANIFEST goes last, so an
  // interrupted reset still reads as sharded.
  const bool sharded = IsShardedDir(*env, wal_dir);
  constexpr std::string_view kQuarantine = ".quarantine";
  for (const std::string& name : *entries) {
    std::string_view base = name;
    if (base.size() > kQuarantine.size() && base.ends_with(kQuarantine)) {
      base.remove_suffix(kQuarantine.size());
    }
    const bool owned =
        name == kWalFile || base == kCompactManifestFile ||
        name == std::string(kCompactManifestFile) + ".tmp" ||
        IsSegmentFileName(base) ||
        (sharded && ParseShardedLogName(base).has_value());
    if (owned) TTRA_RETURN_IF_ERROR(env->Remove(wal_dir + "/" + name));
  }
  if (sharded) {
    TTRA_RETURN_IF_ERROR(env->Remove(wal_dir + "/" + kShardManifestFile));
  }
  return Status::Ok();
}

/// The statement loop of `run --group-commit`/`run --shards`. Returns 0 on
/// success.
int RunProgramConcurrently(ShardedExecutor& exec,
                           const std::vector<lang::Stmt>& program,
                           const Flags& flags, size_t sessions) {
  // Statements in flight: resolved whenever the pipeline drains, so a
  // command error is reported near its statement, not at script end.
  std::vector<std::pair<std::string, std::future<Result<TransactionNumber>>>>
      inflight;
  auto settle = [&]() -> int {
    Status drained = exec.Drain();
    if (!drained.ok()) return Fail("pipeline drain: " + drained.ToString());
    for (auto& [text, future] : inflight) {
      Result<TransactionNumber> result = future.get();
      if (result.ok()) continue;
      if (!flags.lax || !exec.healthy()) {
        return Fail(result.status().ToString() + " [" + text + "]");
      }
      std::cerr << "ttra: " << result.status().ToString() << " [" << text
                << "] (continuing)\n";
    }
    inflight.clear();
    return 0;
  };

  for (const lang::Stmt& raw : program) {
    const auto* modify = std::get_if<lang::ModifyStateStmt>(&raw);
    const auto* show = std::get_if<lang::ShowStmt>(&raw);
    // A constant modify_state needs no database to evaluate, so it can be
    // enqueued without draining; anything that reads state (including the
    // facts-driven optimizer) must wait for its own writes.
    const bool needs_state =
        show != nullptr || flags.optimize ||
        (modify != nullptr &&
         modify->expr.kind() != lang::Expr::Kind::kConst);
    Database db;
    if (needs_state) {
      if (int rc = settle(); rc != 0) return rc;
      db = exec.Snapshot();
    }
    lang::Catalog catalog(db);
    const lang::Stmt stmt =
        flags.optimize ? OptimizeStmt(raw, catalog, db) : raw;
    if (flags.explain) {
      std::cout << "-- " << lang::StmtToString(stmt) << "\n";
      if (const lang::Expr* expr = StmtExpr(stmt)) {
        std::cout << lang::FormatExprTree(*expr);
      }
    }
    if (show != nullptr) {
      const auto* pipelined_show = std::get_if<lang::ShowStmt>(&stmt);
      // Evaluate on N pinned sessions concurrently. They all open at the
      // drained epoch, so E⟦·⟧ purity demands byte-identical tables; a
      // disagreement is an isolation bug, not a user error.
      std::vector<Session> views;
      views.reserve(sessions);
      for (size_t s = 0; s < sessions; ++s) views.push_back(exec.OpenSession());
      std::vector<Result<lang::StateValue>> results(
          sessions, Result<lang::StateValue>(InternalError("not evaluated")));
      std::vector<std::thread> evaluators;
      evaluators.reserve(sessions);
      for (size_t s = 0; s < sessions; ++s) {
        evaluators.emplace_back([&, s]() {
          results[s] =
              lang::EvalExpr(pipelined_show->expr, views[s].database());
        });
      }
      for (auto& t : evaluators) t.join();
      Status status = Status::Ok();
      std::string table;
      for (size_t s = 0; s < sessions; ++s) {
        if (!results[s].ok()) {
          status = results[s].status();
          break;
        }
        std::string rendered = lang::FormatTable(*results[s]);
        if (s == 0) {
          table = std::move(rendered);
        } else if (rendered != table) {
          return Fail("session disagreement at epoch " +
                      std::to_string(views[s].epoch()) +
                      ": isolation bug (please report)");
        }
      }
      if (status.ok()) {
        std::cout << table;
      } else if (!flags.lax) {
        return Fail(status.ToString());
      } else {
        std::cerr << "ttra: " << status.ToString() << " (continuing)\n";
      }
      continue;
    }
    auto command = StmtToCommand(stmt, db);
    if (!command.ok()) {
      if (!flags.lax) return Fail(command.status().ToString());
      std::cerr << "ttra: " << command.status().ToString()
                << " (continuing)\n";
      continue;
    }
    std::vector<Command> sentence;
    sentence.push_back(*std::move(command));
    inflight.emplace_back(lang::StmtToString(stmt),
                          exec.SubmitAsync(std::move(sentence)));
  }
  return settle();
}

/// `run --wal-dir --group-commit` / `run --wal-dir --shards N`: the script
/// executes through the ShardedExecutor — one WAL + writer per shard
/// (one shard unless --shards says otherwise), group-committed batches,
/// order-preserving cross-shard commit.
/// Update statements are enqueued asynchronously; only statements that
/// must evaluate against current state — a show, or a modify_state whose
/// expression is not a constant — drain the pipeline first. Show
/// statements are evaluated on `--sessions` reader sessions concurrently;
/// all sessions open at the drained epoch and must produce identical
/// tables.
int CmdRunConcurrent(const Flags& flags, const std::string& wal_dir) {
  std::ifstream in(flags.positional[1]);
  if (!in) return Fail("cannot open script: " + flags.positional[1]);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto program = lang::ParseProgram(buffer.str());
  if (!program.ok()) return Fail(program.status().ToString());
  if (flags.values.count("db")) {
    return Fail("--db and --wal-dir are exclusive; durable state lives in "
                "the wal directory (export it with --save)");
  }

  size_t sessions = 1;
  if (!CountFlag(flags, "sessions", sessions) || sessions == 0) {
    return UsageError("--sessions expects a positive count");
  }
  ShardedOptions options;
  if (!CountFlag(flags, "batch", options.group_commit.max_batch) ||
      options.group_commit.max_batch == 0) {
    return UsageError("--batch expects a positive batch size");
  }
  if (!CountFlag(flags, "shards", options.shards) || options.shards == 0 ||
      options.shards > kMaxShards) {
    return UsageError("--shards expects a shard count from 1 to " +
                      std::to_string(kMaxShards));
  }

  Env* env = Env::Default();
  if (flags.fresh) {
    Status reset = ResetWalDir(env, wal_dir);
    if (!reset.ok()) return Fail("cannot reset state: " + reset.ToString());
  }

  // Start() refuses a directory holding a single-writer wal.log and names
  // `ttra recover` in its message.
  ShardedExecutor exec(env, wal_dir, options);
  Status started = exec.Start();
  if (!started.ok()) return Fail("recovery failed: " + started.ToString());
  if (flags.recover) {
    ReportRecovery(exec.transaction_number(), exec.last_recovery());
  }
  if (int rc = RunProgramConcurrently(exec, *program, flags, sessions);
      rc != 0) {
    return rc;
  }
  const ShardedExecutor::Stats stats = exec.stats();
  exec.Stop();
  std::cout << "ok (transaction " << exec.transaction_number() << ")\n";
  uint64_t syncs = 0;
  for (const auto& shard : stats.per_shard) syncs += shard.wal.syncs;
  std::cout << "group commit: " << stats.commits << " commit(s) in "
            << stats.batches << " batch(es) across " << exec.shards()
            << " shard(s), largest " << stats.max_batch << ", "
            << stats.cross_shard_batches << " cross-shard, " << syncs
            << " fsync(s)\n";
  return SaveIfRequested(exec.Snapshot(), flags);
}

/// `run --wal-dir`: the script executes through a DurableExecutor, so
/// every statement is logged and fsync'ed before it is acknowledged.
int CmdRunDurable(const Flags& flags, const std::string& wal_dir) {
  std::ifstream in(flags.positional[1]);
  if (!in) return Fail("cannot open script: " + flags.positional[1]);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto program = lang::ParseProgram(buffer.str());
  if (!program.ok()) return Fail(program.status().ToString());
  if (flags.values.count("db")) {
    return Fail("--db and --wal-dir are exclusive; durable state lives in "
                "the wal directory (export it with --save)");
  }

  Env* env = Env::Default();
  if (flags.fresh) {
    Status reset = ResetWalDir(env, wal_dir);
    if (!reset.ok()) return Fail("cannot reset state: " + reset.ToString());
  }
  DurableExecutor exec(env, wal_dir);
  Status opened = exec.Open();
  if (!opened.ok()) return Fail("recovery failed: " + opened.ToString());
  if (flags.recover) ReportRecovery(exec);

  for (const lang::Stmt& raw : *program) {
    const Database db = exec.Snapshot();  // read-only view for evaluation
    lang::Catalog catalog(db);
    const lang::Stmt stmt =
        flags.optimize ? OptimizeStmt(raw, catalog, db) : raw;
    if (flags.explain) {
      std::cout << "-- " << lang::StmtToString(stmt) << "\n";
      if (const lang::Expr* expr = StmtExpr(stmt)) {
        std::cout << lang::FormatExprTree(*expr);
      }
    }
    Status status = Status::Ok();
    if (const auto* show = std::get_if<lang::ShowStmt>(&stmt)) {
      auto value = lang::EvalExpr(show->expr, db);
      if (value.ok()) std::cout << lang::FormatTable(*value);
      status = value.status();
    } else {
      auto command = StmtToCommand(stmt, db);
      status = command.ok() ? exec.Submit(*command).status()
                            : command.status();
    }
    if (!status.ok()) {
      // An unhealthy executor means the log write itself failed; stopping
      // is the only honest option even under --lax.
      if (!flags.lax || !exec.healthy()) return Fail(status.ToString());
      std::cerr << "ttra: " << status.ToString() << " (continuing)\n";
    }
  }
  std::cout << "ok (transaction " << exec.transaction_number() << ")\n";
  return SaveIfRequested(exec.Snapshot(), flags);
}

int CmdRun(const Flags& flags) {
  if (flags.positional.size() != 2) {
    return Fail("usage: ttra run <script> [--db f] [--save f] [--lax] "
                "[--optimize] [--explain] [--wal-dir d] [--fresh] "
                "[--recover] [--group-commit] [--sessions n] [--batch k] "
                "[--shards n]");
  }
  auto wal_dir = flags.values.find("wal-dir");
  if (flags.group_commit || flags.values.count("sessions") ||
      flags.values.count("batch") || flags.values.count("shards")) {
    if (wal_dir == flags.values.end()) {
      return Fail(
          "--group-commit/--sessions/--batch/--shards require --wal-dir");
    }
    return CmdRunConcurrent(flags, wal_dir->second);
  }
  if (wal_dir != flags.values.end()) {
    return CmdRunDurable(flags, wal_dir->second);
  }
  std::ifstream in(flags.positional[1]);
  if (!in) return Fail("cannot open script: " + flags.positional[1]);
  std::stringstream buffer;
  buffer << in.rdbuf();

  auto db = LoadOrEmpty(flags);
  if (!db.ok()) return Fail("load failed: " + db.status().ToString());

  auto program = lang::ParseProgram(buffer.str());
  if (!program.ok()) return Fail(program.status().ToString());

  const lang::ExecOptions options{.strict = !flags.lax};
  for (const lang::Stmt& raw : *program) {
    lang::Catalog catalog(*db);
    const lang::Stmt stmt =
        flags.optimize ? OptimizeStmt(raw, catalog, *db) : raw;
    if (flags.explain) {
      std::cout << "-- " << lang::StmtToString(stmt) << "\n";
      if (const lang::Expr* expr = StmtExpr(stmt)) {
        std::cout << lang::FormatExprTree(*expr);
      }
    }
    std::vector<lang::StateValue> outputs;
    Status status = lang::ExecStmt(stmt, *db, &outputs, options);
    if (!status.ok()) return Fail(status.ToString());
    for (const auto& value : outputs) {
      std::cout << lang::FormatTable(value);
    }
  }
  std::cout << "ok (transaction " << db->transaction_number() << ")\n";
  return SaveIfRequested(*db, flags);
}

int CmdCheckHelp() {
  std::cout <<
      "usage: ttra check <script> [--json] [--werror]\n"
      "\n"
      "Runs the static diagnostics engine over the script without executing\n"
      "it: per-statement analysis plus the whole-program abstract\n"
      "interpreter (TTRA-W006..W009). Nothing is evaluated and no database\n"
      "is touched.\n"
      "\n"
      "flags:\n"
      "  --json    machine-readable output (schema carries a \"version\"\n"
      "            field; current version " << lang::kDiagnosticsJsonVersion
      << ")\n"
      "  --werror  treat warnings as errors for the exit code\n"
      "\n"
      "exit codes:\n"
      "  0  script is clean (warnings allowed unless --werror)\n"
      "  1  the script has errors, or warnings under --werror\n"
      "  2  usage error or the script cannot be opened\n";
  return 0;
}

int CmdCheck(const Flags& flags) {
  if (flags.help) return CmdCheckHelp();
  if (flags.positional.size() != 2) {
    std::cerr << "ttra: usage: ttra check <script> [--json] [--werror] "
                 "(--help for details)\n";
    return 2;
  }
  const std::string& path = flags.positional[1];
  std::ifstream in(path);
  if (!in) {
    std::cerr << "ttra: cannot open script: " << path << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const lang::DiagnosticSink sink = lang::CheckSource(buffer.str());
  if (flags.json) {
    std::cout << lang::DiagnosticsToJson(sink.diagnostics(), path);
  } else {
    std::cout << lang::FormatDiagnostics(sink.diagnostics(), path);
  }
  if (sink.has_errors()) return 1;
  if (flags.werror && sink.warning_count() > 0) return 1;
  return 0;
}

int CmdDescribe(const Flags& flags) {
  auto db = LoadOrEmpty(flags);
  if (!db.ok()) return Fail("load failed: " + db.status().ToString());
  std::cout << lang::DescribeDatabase(*db);
  return 0;
}

/// `vacuum --wal-dir`: online storage compaction through the live
/// executor. Rewrites every relation's segment chain to a single keyframe
/// at the current tip, collapses the manifest chain to one full record,
/// and truncates the WAL — readers pinned at older epochs keep their
/// in-memory states (copy-then-swap; nothing blocks on them).
int CmdVacuumOnline(const Flags& flags, const std::string& wal_dir) {
  if (flags.values.count("db") || flags.values.count("relation") ||
      flags.values.count("before")) {
    return Fail("--wal-dir vacuum compacts the directory's storage online; "
                "it takes no --db/--relation/--before (use the --db form "
                "for per-relation state archival)");
  }
  Env* env = Env::Default();
  if (IsShardedDir(*env, wal_dir)) {
    ShardedExecutor exec(env, wal_dir);
    Status started = exec.Start();
    if (!started.ok()) return Fail("recovery failed: " + started.ToString());
    Status compacted = exec.CompactStorage();
    if (!compacted.ok()) {
      return Fail("compaction failed: " + compacted.ToString());
    }
    const uint64_t bytes = exec.compact_store()->ApproxBytes();
    exec.Stop();
    std::cout << "compacted storage (transaction "
              << exec.transaction_number() << ", ~" << bytes << " bytes)\n";
    return 0;
  }
  DurableExecutor exec(env, wal_dir);
  Status opened = exec.Open();
  if (!opened.ok()) return Fail("recovery failed: " + opened.ToString());
  Status compacted = exec.CompactStorage();
  if (!compacted.ok()) {
    return Fail("compaction failed: " + compacted.ToString());
  }
  std::cout << "compacted storage (transaction " << exec.transaction_number()
            << ", ~" << exec.compact_store()->ApproxBytes() << " bytes)\n";
  return 0;
}

int CmdVacuum(const Flags& flags) {
  if (auto dir = flags.values.find("wal-dir"); dir != flags.values.end()) {
    return CmdVacuumOnline(flags, dir->second);
  }
  auto relation = flags.values.find("relation");
  auto before = flags.values.find("before");
  if (relation == flags.values.end() || before == flags.values.end()) {
    return Fail(
        "usage: ttra vacuum --db f --relation r --before txn "
        "[--archive f] [--save f]  |  ttra vacuum --wal-dir d");
  }
  TransactionNumber cutoff = 0;
  if (!CountFlag(flags, "before", cutoff)) {
    return UsageError("--before expects a transaction number");
  }
  auto db = LoadOrEmpty(flags);
  if (!db.ok()) return Fail("load failed: " + db.status().ToString());
  auto result = VacuumRelation(*db, relation->second, cutoff);
  if (!result.ok()) return Fail(result.status().ToString());
  std::cout << "archived " << result->archived_states << " state(s), "
            << result->archive.size() << " bytes\n";
  auto archive_path = flags.values.find("archive");
  if (archive_path != flags.values.end() && !result->archive.empty()) {
    std::ofstream out(archive_path->second,
                      std::ios::binary | std::ios::trunc);
    if (!out) return Fail("cannot write archive: " + archive_path->second);
    out.write(result->archive.data(),
              static_cast<std::streamsize>(result->archive.size()));
  }
  return SaveIfRequested(*db, flags);
}

int CmdFsckHelp() {
  std::cout <<
      "usage: ttra fsck --wal-dir <dir> [--json] [--repair]\n"
      "\n"
      "Scans the directory's checkpoint and write-ahead log: every frame\n"
      "is checksum-verified and decoded, and each corrupt record is\n"
      "reported with its byte offset and cause. Sharded directories (a\n"
      "MANIFEST is present) are scanned log by log: every generation of\n"
      "each shard-<k>.wal and of coordinator.log (shard-<k>.<g>.wal,\n"
      "coordinator.<g>.log), with per-log findings. Without --repair\n"
      "nothing is modified. With --repair the damaged bytes are moved to\n"
      "<wal>.quarantine and the log is truncated to its last valid prefix\n"
      "so `ttra recover` succeeds; nothing is ever deleted. Repairing one\n"
      "shard's torn tail is safe: recovery drops every batch beyond the\n"
      "first global gap (all provably unacknowledged), leaving a\n"
      "consistent global prefix.\n"
      "\n"
      "flags:\n"
      "  --json    machine-readable report\n"
      "  --repair  quarantine damaged bytes and truncate the log\n"
      "\n"
      "exit codes (shared with `ttra recover`):\n"
      "  0  clean: checkpoint and log fully intact\n"
      "  1  torn tail only (or damage successfully repaired): recovery\n"
      "     truncates and continues\n"
      "  2  usage error or the directory cannot be read\n"
      "  3  corruption needs repair: intact records are stranded beyond\n"
      "     the damage (or the log header is damaged); rerun with --repair\n"
      "  4  unrecoverable: the checkpoint itself is corrupt, or the\n"
      "     directory holds a legacy checkpoint.db (left untouched)\n";
  return 0;
}

int CmdFsck(const Flags& flags) {
  if (flags.help) return CmdFsckHelp();
  auto dir = flags.values.find("wal-dir");
  if (dir == flags.values.end() || flags.positional.size() != 1) {
    std::cerr << "ttra: usage: ttra fsck --wal-dir <dir> [--json] [--repair] "
                 "(--help for details)\n";
    return 2;
  }
  const SalvageOptions options = MakeSalvageOptions();
  Result<SalvageReport> report =
      flags.repair ? RepairStorage(Env::Default(), dir->second, options)
                   : ScanStorage(Env::Default(), dir->second, options);
  if (!report.ok()) {
    std::cerr << "ttra: fsck failed: " << report.status().ToString() << "\n";
    return 2;
  }
  std::cout << (flags.json ? SalvageReportToJson(*report)
                           : FormatSalvageReport(*report));
  return SalvageExitCode(*report);
}

int CmdRecover(const Flags& flags) {
  auto dir = flags.values.find("wal-dir");
  if (dir == flags.values.end() || flags.positional.size() != 1) {
    std::cerr << "ttra: usage: ttra recover --wal-dir <dir> [--save f] "
                 "(exit codes: see `ttra fsck --help`)\n";
    return 2;
  }
  // Classify the damage before touching anything, so the exit code can
  // distinguish clean (0) / recovered-with-truncated-tail (1) /
  // needs-repair (3) / unrecoverable (4), mirroring fsck.
  auto scanned = ScanStorage(Env::Default(), dir->second, MakeSalvageOptions());
  if (!scanned.ok()) {
    std::cerr << "ttra: cannot scan " << dir->second << ": "
              << scanned.status().ToString() << "\n";
    return 2;
  }
  if (scanned->verdict == SalvageVerdict::kNeedsRepair ||
      scanned->verdict == SalvageVerdict::kUnrecoverable) {
    std::cout << FormatSalvageReport(*scanned);
    std::cerr << "ttra: refusing to recover ("
              << SalvageVerdictName(scanned->verdict)
              << "); run `ttra fsck --repair --wal-dir " << dir->second
              << "`\n";
    return SalvageExitCode(*scanned);
  }
  Env* env = Env::Default();
  if (IsShardedDir(*env, dir->second)) {
    ShardedExecutor exec(env, dir->second);
    Status started = exec.Start();
    if (!started.ok()) {
      std::cerr << "ttra: recovery failed: " << started.ToString() << "\n";
      return 4;
    }
    ReportRecovery(exec.transaction_number(), exec.last_recovery());
    const Database db = exec.Snapshot();
    exec.Stop();
    std::cout << lang::DescribeDatabase(db);
    const int saved = SaveIfRequested(db, flags);
    if (saved != 0) return saved;
    return SalvageExitCode(*scanned);  // 0 clean, 1 truncated tail
  }
  DurableExecutor exec(env, dir->second);
  Status opened = exec.Open();
  if (!opened.ok()) {
    std::cerr << "ttra: recovery failed: " << opened.ToString() << "\n";
    return 4;
  }
  ReportRecovery(exec);
  const Database db = exec.Snapshot();
  std::cout << lang::DescribeDatabase(db);
  const int saved = SaveIfRequested(db, flags);
  if (saved != 0) return saved;
  return SalvageExitCode(*scanned);  // 0 clean, 1 truncated tail
}

// --- modelcheck ------------------------------------------------------------

int CmdModelcheck(const Flags& flags) {
  modelcheck::ExploreOptions options;
  if (!CountFlag(flags, "preemptions", options.preemption_bound) ||
      !CountFlag(flags, "max-schedules", options.max_schedules) ||
      !CountFlag(flags, "max-steps", options.max_steps_per_run)) {
    return UsageError(
        "--preemptions/--max-schedules/--max-steps expect a count");
  }
  auto scenario_it = flags.values.find("scenario");
  const std::string which =
      scenario_it == flags.values.end() ? "all" : scenario_it->second;

  // --replay "d1,d2,...": re-execute one decision sequence and show it.
  auto replay_it = flags.values.find("replay");
  if (replay_it != flags.values.end()) {
    if (which == "all") {
      return UsageError("modelcheck --replay needs an explicit --scenario");
    }
    modelcheck::Scenario scenario =
        modelcheck::FindScenario(which, flags.seeded_bug);
    if (!scenario.run) return UsageError("unknown scenario: " + which);
    std::vector<uint64_t> decisions;
    if (!modelcheck::ParseDecisions(replay_it->second, &decisions)) {
      return UsageError("malformed --replay decision list: " +
                        replay_it->second);
    }
    modelcheck::ReplayResult replay = modelcheck::Replay(
        scenario.run, decisions, options.max_steps_per_run);
    std::cout << modelcheck::RenderTrace(replay.run);
    if (replay.failed) {
      std::cout << "replay violates: "
                << (replay.failure_message.empty() ? replay.run.error
                                                   : replay.failure_message)
                << "\n";
      return 1;
    }
    std::cout << "replay clean (" << replay.run.steps << " steps)\n";
    return 0;
  }

  // --seeded-bug: the sharded scenario with a deliberately broken
  // durability watermark; success means the explorer CAUGHT it.
  if (flags.seeded_bug) {
    modelcheck::Scenario seeded = which == "all"
        ? modelcheck::ShardedCrossShardScenario(/*seeded_bug=*/true)
        : modelcheck::FindScenario(which, /*seeded_bug=*/true);
    if (!seeded.run) return UsageError("unknown scenario: " + which);
    modelcheck::ExploreResult result =
        modelcheck::Explore(seeded.run, options);
    if (result.failed) {
      std::cout << seeded.name << " [seeded bug]: caught after "
                << result.schedules << " schedules\n"
                << modelcheck::FormatFailure(result);
      return 0;
    }
    std::cerr << "ttra: seeded bug ESCAPED " << result.schedules
              << " schedules (bound " << options.preemption_bound << ")\n";
    return 1;
  }

  std::vector<modelcheck::Scenario> scenarios;
  if (which == "all") {
    scenarios = modelcheck::AllScenarios();
  } else {
    modelcheck::Scenario one = modelcheck::FindScenario(which);
    if (!one.run) return UsageError("unknown scenario: " + which);
    scenarios.push_back(std::move(one));
  }

  for (const modelcheck::Scenario& scenario : scenarios) {
    modelcheck::ExploreResult result =
        modelcheck::Explore(scenario.run, options);
    if (result.failed) {
      std::cout << scenario.name << ": VIOLATION after " << result.schedules
                << " schedules\n"
                << modelcheck::FormatFailure(result);
      return 1;
    }
    std::cout << scenario.name << ": " << result.schedules << " schedules ("
              << (result.exhausted ? "exhausted" : "capped")
              << " at preemption bound " << options.preemption_bound
              << "), longest run " << result.max_steps_seen << " steps\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, flags)) return 2;
  if (flags.positional.empty()) {
    return Fail(
        "usage: ttra <run|check|describe|vacuum|recover|fsck|modelcheck> ...");
  }
  const std::string& command = flags.positional[0];
  if (command == "run") return CmdRun(flags);
  if (command == "check") return CmdCheck(flags);
  if (command == "describe") return CmdDescribe(flags);
  if (command == "vacuum") return CmdVacuum(flags);
  if (command == "recover") return CmdRecover(flags);
  if (command == "fsck") return CmdFsck(flags);
  if (command == "modelcheck") return CmdModelcheck(flags);
  return Fail("unknown command: " + command);
}
