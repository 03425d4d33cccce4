#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>

#include "engine.h"
#include "inputs.h"
#include "lang/absint.h"
#include "lang/analyzer.h"
#include "lang/evaluator.h"
#include "lang/parser.h"
#include "optimizer/rewriter.h"
#include "rollback/persistence.h"
#include "stats.h"
#include "trace.h"
#include "traced_env.h"

namespace e2ebench {
namespace {

namespace fs = std::filesystem;
using ttra::TransactionNumber;

// --- Workload constants ------------------------------------------------------

/// Closed loop: submits kept outstanding by the generator.
constexpr size_t kWindow = 256;
/// `ingest`: sentences per round (fixed work; rounds repeat until the run's
/// seconds are spent, each on a fresh directory).
constexpr size_t kRoundWrites = 1024;
/// Explicit Checkpoint() every this many submitted sentences; the vacuum
/// (CompactStorage) takes the place of the middle one.
constexpr size_t kCheckpointEvery = 256;
/// `timetravel`/`mixed`: sentences of history built in set-up.
constexpr size_t kHistoryWrites = 1024;
/// `mixed`: pre-generated writes the open-loop writer cycles through.
constexpr size_t kMixedPool = 1024;
/// `mixed`: fixed open-loop commit rate (sentences/s). The writer keeps up
/// with it beside the readers; README.md records why it is not higher.
constexpr double kMixedCommitRate = 150;
constexpr size_t kMixedReaders = 2;
/// `mixed` readers reopen their session every this many requests.
constexpr size_t kSessionRequests = 16;
/// Every run repeats a pass of fixed work until its seconds are spent, and
/// makes at least this many besides the warm-up pass. A pass sets up (timed as setup_s), runs its
/// load, then stops and recovers. Short passes spread the set-ups, write
/// phases and recoveries over the whole run, so each figure sees the
/// shared host's fast and slow spells in the same shares as the rest.
constexpr size_t kMinPasses = 4;
/// `timetravel`/`mixed`: length of a pass's measured load (the reads; the
/// open-loop writes beside them).
constexpr int64_t kLoadNs = 2'000'000'000;
/// recover_s drops this share of the recoveries at each end before it
/// averages them.
constexpr double kRecoverTrim = 0.1;
/// Each p99 is taken over runs of this many samples, in order of their end
/// times, and averaged (the fewest that leave ten beyond a p99).
constexpr size_t kTailChunk = 1000;
/// `timetravel`/`mixed`: timed recoveries at the end of each pass.
constexpr size_t kRecoveries = 3;
/// `ingest`: verification reads after each round's recovery.
constexpr size_t kVerifyReads = 1536;
/// Length of the pre-generated read-request stream (cycled).
constexpr size_t kReadRequests = 8192;
/// "Recent" targets lie among a relation's last this-many versions (the
/// FINDSTATE cache holds 8 states per relation).
constexpr size_t kRecentVersions = 8;
/// Most requests go far, so the median probe replays from a floor and the
/// recent ones show in findstate_recent_us. A recent-biased mix put the
/// median at the hit/miss boundary, where it flipped between runs.
constexpr double kTimetravelRecentShare = 0.25;
constexpr double kMixedRecentShare = 0.25;
/// One query in this many is re-evaluated unoptimized and compared.
constexpr uint64_t kCheckEvery = 8;
/// Read rates are summed per slice of this many nanoseconds; traced runs
/// alternate traced and untraced slices (`ingest` alternates rounds
/// instead).
constexpr int64_t kSliceNs = 250'000'000;

// --- Generator's record ------------------------------------------------------

struct StateDigest {
  uint64_t hash = 0;
  uint32_t size = 0;
};

StateDigest DigestOf(const ttra::Command& command) {
  if (const auto* s = std::get_if<ttra::ModifySnapshotCmd>(&command)) {
    return {s->state.Hash(), static_cast<uint32_t>(s->state.size())};
  }
  if (const auto* h = std::get_if<ttra::ModifyHistoricalCmd>(&command)) {
    return {h->state.Hash(), static_cast<uint32_t>(h->state.size())};
  }
  return {};
}

/// Inputs plus what the checks need, all made in set-up.
struct Prepared {
  Inputs inputs;
  std::vector<std::vector<StateDigest>> write_digests;
  std::vector<StateDigest> load_digests;
  std::vector<ReadRequest> reads;
};

Prepared Prepare(uint64_t seed, size_t writes, double recent_share) {
  Prepared p;
  p.inputs = MakeInputs(seed, writes);
  for (const auto& sentence : p.inputs.load) {
    p.load_digests.push_back(DigestOf(sentence.back()));
  }
  for (const Write& w : p.inputs.writes) {
    std::vector<StateDigest> d;
    for (const ttra::Command& c : w.sentence) d.push_back(DigestOf(c));
    p.write_digests.push_back(std::move(d));
  }
  p.reads = MakeReadRequests(seed, kReadRequests, recent_share,
                             p.inputs.relations);
  return p;
}

struct Version {
  TransactionNumber txn = 0;
  StateDigest digest;
};

/// What the generator wrote and at which transaction, per relation. Safe
/// for one writer beside many readers.
class History {
 public:
  explicit History(size_t relations) : versions_(relations) {}

  void Add(uint32_t relation, TransactionNumber txn, StateDigest digest) {
    std::unique_lock lock(mutex_);
    std::vector<Version>& v = versions_[relation];
    auto it = v.end();
    while (it != v.begin() && (it - 1)->txn > txn) --it;
    v.insert(it, Version{txn, digest});
  }

  /// A sentence acked at `post`: its commands took post-(m-1) .. post.
  void AddSentence(const Write& w, const std::vector<StateDigest>& digests,
                   TransactionNumber post) {
    const size_t m = w.sentence.size();
    for (size_t k = 0; k < m; ++k) {
      Add(w.relations[k], post - (m - 1 - k), digests[k]);
    }
  }

  /// The version current at `n`.
  std::optional<Version> At(uint32_t relation, TransactionNumber n) const {
    std::shared_lock lock(mutex_);
    const std::vector<Version>& v = versions_[relation];
    auto it = std::upper_bound(
        v.begin(), v.end(), n,
        [](TransactionNumber t, const Version& ver) { return t < ver.txn; });
    if (it == v.begin()) return std::nullopt;
    return *(it - 1);
  }

  /// A target among the versions at or before `bound`: one of the last
  /// kRecentVersions when `recent`, else uniform; plus its predecessor.
  std::optional<std::pair<Version, Version>> Choose(uint32_t relation,
                                                    TransactionNumber bound,
                                                    bool recent,
                                                    double u) const {
    std::shared_lock lock(mutex_);
    const std::vector<Version>& v = versions_[relation];
    auto end = std::upper_bound(
        v.begin(), v.end(), bound,
        [](TransactionNumber t, const Version& ver) { return t < ver.txn; });
    const size_t count = static_cast<size_t>(end - v.begin());
    if (count == 0) return std::nullopt;
    const size_t span = recent ? std::min(count, kRecentVersions) : count;
    const size_t index =
        count - 1 - std::min(span - 1, static_cast<size_t>(u * static_cast<double>(span)));
    return std::make_pair(v[index], v[index == 0 ? 0 : index - 1]);
  }

 private:
  mutable std::shared_mutex mutex_;
  std::vector<std::vector<Version>> versions_;
};

// --- Measurements ------------------------------------------------------------

/// Accumulated over every write phase of a run.
struct WriteStats {
  TimedSamples latency_us;           // submit -> ack (open loop: due -> ack)
  std::vector<double> ack_wait_us;  // submit returned -> ack (traced only)
  /// Commits over write-phase time, untraced [0] and traced [1].
  Throughput rates[2];
  std::vector<double> gen_lag_us;   // open loop only
  uint64_t commits = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t operator_actions = 0;    // checkpoints + vacuums
  /// Traced write-phase wall time.
  double traced_wall_s = 0;
  EnvCounters env;
  std::string problem;
};

struct ReadStats {
  TimedSamples rho_us;
  TimedSamples query_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t queries = 0;
  uint64_t changed = 0;  // queries the optimizer rewrote
  double rows_in = 0;    // traced queries only
  double rows_out = 0;
  std::string problem;

  void Merge(const ReadStats& o) {
    rho_us.Merge(o.rho_us);
    query_us.Merge(o.query_us);
    attempted += o.attempted;
    failed += o.failed;
    mismatches += o.mismatches;
    queries += o.queries;
    changed += o.changed;
    rows_in += o.rows_in;
    rows_out += o.rows_out;
    if (problem.empty()) problem = o.problem;
  }
};

struct RecoverStats {
  std::vector<double> seconds;
  std::vector<double> read_s;
  std::vector<double> read_bytes;
  std::vector<double> replay_s;
  std::vector<double> stored_bytes_per_commit;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::string problem;
};

void Note(std::string& problem, const std::string& what) {
  if (problem.empty()) problem = what;
}

// --- Write path ---------------------------------------------------------------

struct Outstanding {
  std::future<ttra::Result<TransactionNumber>> future;
  size_t index = 0;
  int64_t start_ns = 0;      // submit (closed loop) or due time (open loop)
  int64_t submitted_ns = 0;  // Submit returned
  uint64_t span_id = 0;      // commit root span; 0 = untraced
};

/// Waits for acks in submission order on its own thread, stamps each one
/// and hands the result to `on_ack`. With a window, Push blocks while
/// that many submits are outstanding (the closed loop).
class AckCollector {
 public:
  using OnAck = std::function<void(size_t index,
                                   const ttra::Result<TransactionNumber>&)>;

  AckCollector(size_t window, WriteStats& stats, OnAck on_ack)
      : window_(window), stats_(stats), on_ack_(std::move(on_ack)),
        thread_([this] { Loop(); }) {}
  ~AckCollector() { Close(); }

  AckCollector(const AckCollector&) = delete;
  AckCollector& operator=(const AckCollector&) = delete;

  void Push(Outstanding o) {
    std::unique_lock lock(mutex_);
    space_.wait(lock, [&] { return window_ == 0 || outstanding_ < window_; });
    ++outstanding_;
    queue_.push_back(std::move(o));
    ready_.notify_one();
  }

  /// Blocks until every pushed sentence is acked.
  void WaitIdle() {
    std::unique_lock lock(mutex_);
    space_.wait(lock, [&] { return outstanding_ == 0; });
  }

  /// Waits for every pushed ack, adds this collector's results to the
  /// WriteStats and returns the time the last ack arrived.
  int64_t Close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
      ready_.notify_one();
    }
    if (!thread_.joinable()) return last_ack_ns_;
    thread_.join();
    stats_.latency_us.Merge(latency_us_);
    stats_.ack_wait_us.insert(stats_.ack_wait_us.end(), ack_wait_us_.begin(),
                              ack_wait_us_.end());
    stats_.commits += commits_;
    stats_.failed += failed_;
    if (!problem_.empty()) Note(stats_.problem, problem_);
    return last_ack_ns_;
  }

 private:
  void Loop() {
    for (;;) {
      Outstanding o;
      {
        std::unique_lock lock(mutex_);
        ready_.wait(lock, [&] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        o = std::move(queue_.front());
        queue_.pop_front();
      }
      const ttra::Result<TransactionNumber> result = o.future.get();
      const int64_t now = NowNs();
      last_ack_ns_ = now;
      latency_us_.Add(now, static_cast<double>(now - o.start_ns) / 1e3);
      if (o.span_id != 0) {
        ack_wait_us_.push_back(static_cast<double>(now - o.submitted_ns) / 1e3);
        Span root;
        root.id = o.span_id;
        root.request = o.span_id;
        root.name = SpanName::kCommit;
        root.start_ns = o.start_ns;
        root.end_ns = now;
        Tracer::Record(root);
      }
      if (!result.ok()) {
        ++failed_;
        Note(problem_, "commit failed: " + result.status().ToString());
      } else {
        ++commits_;
      }
      on_ack_(o.index, result);
      std::lock_guard lock(mutex_);
      --outstanding_;
      space_.notify_all();
    }
  }

  const size_t window_;
  WriteStats& stats_;  // touched only by Close, after the join
  OnAck on_ack_;
  // Collector-thread results, merged into stats_ by Close.
  TimedSamples latency_us_;
  std::vector<double> ack_wait_us_;
  uint64_t commits_ = 0;
  uint64_t failed_ = 0;
  std::string problem_;
  std::mutex mutex_;
  std::condition_variable ready_, space_;
  std::deque<Outstanding> queue_;
  size_t outstanding_ = 0;
  bool closed_ = false;
  int64_t last_ack_ns_ = 0;
  std::thread thread_;  // last: starts after every member it uses
};

/// Submits one sentence, timed as the rollback layer's submit span.
Outstanding SubmitOne(Engine& engine, const Write& w, size_t index,
                      int64_t start_ns) {
  Outstanding o;
  o.index = index;
  o.start_ns = start_ns;
  o.span_id = Tracer::enabled() ? Tracer::NewId() : 0;
  {
    ScopedSpan span(SpanName::kSubmit, o.span_id, o.span_id);
    o.future = engine.Submit(w.sentence, w.atomic);
  }
  o.submitted_ns = NowNs();
  return o;
}

/// A checkpoint or vacuum, recorded as a span when `record` (operator
/// actions are rare, so `mixed` records every one in a traced run rather
/// than only those that fall in a traced slice).
void OperatorAction(Engine& engine, bool vacuum, WriteStats& stats, bool record) {
  ++stats.attempted;
  ++stats.operator_actions;
  Span span;
  span.name = vacuum ? SpanName::kVacuum : SpanName::kCheckpoint;
  span.start_ns = NowNs();
  const ttra::Status status = vacuum ? engine.Vacuum() : engine.Checkpoint();
  span.end_ns = NowNs();
  if (record) {
    span.id = Tracer::NewId();
    Tracer::Record(span);
  }
  if (!status.ok()) {
    ++stats.failed;
    Note(stats.problem, (vacuum ? "vacuum: " : "checkpoint: ") + status.ToString());
  }
}

/// Defines every relation and loads its initial state; records the load
/// versions. Returns the transaction number after the load.
TransactionNumber Load(Engine& engine, const Prepared& p, History& history,
                       WriteStats& stats) {
  std::vector<std::future<ttra::Result<TransactionNumber>>> futures;
  for (const auto& sentence : p.inputs.load) {
    futures.push_back(engine.Submit(sentence, /*atomic=*/true));
  }
  TransactionNumber last = 0;
  for (size_t r = 0; r < futures.size(); ++r) {
    ++stats.attempted;
    const ttra::Result<TransactionNumber> result = futures[r].get();
    if (!result.ok()) {
      ++stats.failed;
      Note(stats.problem, "load failed: " + result.status().ToString());
      continue;
    }
    history.Add(static_cast<uint32_t>(r), *result, p.load_digests[r]);
    last = std::max(last, *result);
  }
  return last;
}

/// Closed-loop, fixed-work write phase over the first `count` writes:
/// kWindow submits outstanding, with the operator schedule, whose actions
/// are recorded as spans when `record_ops`. Records the acked transaction
/// per sentence.
void ClosedLoopWrites(Engine& engine, TracedEnv& env, const Prepared& p,
                      size_t count, bool record_ops, History& history,
                      WriteStats& stats, std::vector<TransactionNumber>& acked) {
  const std::vector<Write>& writes = p.inputs.writes;
  acked.assign(count, 0);
  const bool traced = Tracer::enabled();
  const EnvCounters before = env.counters();
  const int64_t t0 = NowNs();
  int64_t end = t0;
  {
    AckCollector acks(kWindow, stats,
                      [&](size_t i, const ttra::Result<TransactionNumber>& r) {
                        if (r.ok()) acked[i] = *r;
                      });
    for (size_t i = 0; i < count; ++i) {
      ++stats.attempted;
      acks.Push(SubmitOne(engine, writes[i], i, NowNs()));
      // The operator schedule: a checkpoint every kCheckpointEvery
      // sentences and at the end, the vacuum in place of the middle one,
      // all on the live system. Only the final checkpoint first waits for
      // the acks, so that it covers every sentence: the bytes stored and
      // the work recovery finds are then the same on every run. (Waiting
      // mid-phase would empty the pipeline, and the small batches that
      // refill it each pay a clone of the whole database.)
      const size_t submitted = i + 1;
      if (submitted == count) acks.WaitIdle();
      if (submitted % kCheckpointEvery == 0 || submitted == count) {
        OperatorAction(engine, submitted == count / 2, stats, record_ops);
      }
    }
    end = acks.Close();
  }
  const double wall = static_cast<double>(std::max(end, NowNs()) - t0) / 1e9;
  stats.env = stats.env.Plus(env.counters().Minus(before));
  if (traced) stats.traced_wall_s += wall;
  stats.rates[traced ? 1 : 0].Add(static_cast<double>(count), wall);
  for (size_t i = 0; i < count; ++i) {
    if (acked[i] != 0) history.AddSentence(writes[i], p.write_digests[i], acked[i]);
  }
}

/// Checks the acks of a closed-loop phase: every ack OK, and the acked
/// transactions strictly increasing in submission order (one shard, one
/// FIFO queue).
bool CheckAcks(const std::vector<TransactionNumber>& acked, std::string& problem) {
  TransactionNumber last = 0;
  for (size_t i = 0; i < acked.size(); ++i) {
    if (acked[i] == 0) {
      Note(problem, "sentence " + std::to_string(i) + " not acked OK");
      return false;
    }
    if (acked[i] <= last) {
      Note(problem, "acked transactions not increasing at sentence " +
                        std::to_string(i));
      return false;
    }
    last = acked[i];
  }
  return true;
}

// --- Read path ----------------------------------------------------------------

SpanName EvalSpan(ReadClass c) {
  switch (c) {
    case ReadClass::kSelect:
      return SpanName::kEvalSelect;
    case ReadClass::kJoin:
      return SpanName::kEvalJoin;
    case ReadClass::kDiff:
      return SpanName::kEvalDiff;
    case ReadClass::kAggregate:
      return SpanName::kEvalAggregate;
    case ReadClass::kTemporal:
      return SpanName::kEvalTemporal;
    default:
      return SpanName::kEvalPoint;
  }
}

size_t ResultSize(const ttra::lang::StateValue& v) {
  return std::visit([](const auto& s) { return s.size(); }, v);
}

/// Runs read requests against pinned sessions and checks every result.
class Reader {
 public:
  Reader(const Inputs& inputs, const History& history, ReadStats& stats)
      : inputs_(inputs), history_(history), stats_(stats) {}

  /// `bound`: the newest transaction both the session and the record
  /// cover. `floor`: every relation is defined at or before it.
  void Run(const ttra::Session& session, TransactionNumber bound,
           TransactionNumber floor, const ReadRequest& req) {
    const auto pick = history_.Choose(req.relation, bound, req.recent, req.u);
    if (!pick.has_value()) return;
    if (req.cls == ReadClass::kProbe) {
      Probe(session, req, pick->first);
    } else {
      Query(session, bound, floor, req, pick->first, pick->second);
    }
  }

 private:
  void Fail(const std::string& what) {
    ++stats_.failed;
    Note(stats_.problem, what);
  }
  void Mismatch(const std::string& what) {
    ++stats_.mismatches;
    Note(stats_.problem, what);
  }

  void Probe(const ttra::Session& session, const ReadRequest& req,
             const Version& v) {
    const RelationSpec& rel = inputs_.relations[req.relation];
    ++stats_.attempted;
    Span root;
    if (Tracer::enabled()) {
      root.id = Tracer::NewId();
      root.request = root.id;
      root.name = SpanName::kRho;
    }
    // The state is hashed for the check only after the clock stops.
    std::optional<ttra::Result<ttra::SnapshotState>> snapshot;
    std::optional<ttra::Result<ttra::HistoricalState>> historical;
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(req.recent ? SpanName::kFindStateRecent
                                 : SpanName::kFindStateFar,
                      root.id, root.id);
      if (rel.temporal) {
        historical.emplace(session.RollbackHistorical(rel.name, v.txn));
      } else {
        snapshot.emplace(session.Rollback(rel.name, v.txn));
      }
    }
    const int64_t t1 = NowNs();
    if (root.id != 0) {
      root.start_ns = t0;
      root.end_ns = t1;
      Tracer::Record(root);
    }
    const ttra::Status status =
        rel.temporal ? historical->status() : snapshot->status();
    if (!status.ok()) {
      return Fail("rho(" + rel.name + ", " + std::to_string(v.txn) +
                  "): " + status.ToString());
    }
    stats_.rho_us.Add(t1, static_cast<double>(t1 - t0) / 1e3);
    const StateDigest got =
        rel.temporal ? StateDigest{(*historical)->Hash(),
                                   static_cast<uint32_t>((*historical)->size())}
                     : StateDigest{(*snapshot)->Hash(),
                                   static_cast<uint32_t>((*snapshot)->size())};
    if (got.hash != v.digest.hash || got.size != v.digest.size) {
      Mismatch("rho(" + rel.name + ", " + std::to_string(v.txn) +
               ") differs from the state written at that transaction");
    }
  }

  std::string Text(const ReadRequest& req, const Version& v, const Version& prev,
                   TransactionNumber join_txn, double& rows_in) const {
    const std::string& name = inputs_.relations[req.relation].name;
    const std::string n = std::to_string(v.txn);
    const std::string rho = "rho(" + name + ", " + n + ")";
    rows_in = v.digest.size;
    switch (req.cls) {
      case ReadClass::kSelect:
        return "select[a1 < " + std::to_string(req.param) + "](" + rho + ")";
      case ReadClass::kJoin: {
        const std::string& other = inputs_.relations[req.relation2].name;
        const auto partner = history_.At(req.relation2, join_txn);
        rows_in += partner.has_value() ? partner->digest.size : 0;
        return "project[a0, a1](rho(" + name + ", " + std::to_string(join_txn) +
               ")) join rename[a1 -> b1](project[a0, a1](rho(" + other + ", " +
               std::to_string(join_txn) + ")))";
      }
      case ReadClass::kDiff:
        rows_in += prev.digest.size;
        return rho + " minus rho(" + name + ", " + std::to_string(prev.txn) + ")";
      case ReadClass::kAggregate:
        return "summarize[a0; n = count, t = sum(a1)](" + rho + ")";
      case ReadClass::kTemporal: {
        const int64_t from = req.param * 3;
        const std::string window =
            "[" + std::to_string(from) + ", " + std::to_string(from + 100) + ")";
        return "delta[overlaps(valid, " + window + "); valid intersect " +
               window + "](hrho(" + name + ", " + n + "))";
      }
      default:
        return rho;
    }
  }

  /// The `run --optimize` show path, each call timed as its own span.
  void Query(const ttra::Session& session, TransactionNumber bound,
             TransactionNumber floor, const ReadRequest& req, const Version& v,
             const Version& prev) {
    namespace lang = ttra::lang;
    double rows_in = 0;
    const TransactionNumber join_txn = std::min(bound, std::max(v.txn, floor));
    const std::string text = Text(req, v, prev, join_txn, rows_in);
    const ttra::Database& db = session.database();
    ++stats_.attempted;
    ++stats_.queries;
    Span root;
    if (Tracer::enabled()) {
      root.id = Tracer::NewId();
      root.request = root.id;
      root.name = SpanName::kQuery;
    }
    const int64_t t0 = NowNs();
    std::optional<lang::Expr> parsed;
    std::optional<lang::Expr> optimized;
    ttra::Result<lang::StateValue> value = ttra::InternalError("not evaluated");
    do {
      {
        ScopedSpan span(SpanName::kParse, root.id, root.id);
        auto expr = lang::ParseExpr(text);
        if (!expr.ok()) {
          value = expr.status();
          break;
        }
        parsed = std::move(*expr);
      }
      std::optional<lang::Catalog> catalog;
      {
        ScopedSpan span(SpanName::kAnalyze, root.id, root.id);
        catalog.emplace(db);
        auto type = lang::Analyze(*parsed, *catalog);
        if (!type.ok()) {
          value = type.status();
          break;
        }
      }
      std::optional<lang::AbsState> facts;
      {
        ScopedSpan span(SpanName::kAbsint, root.id, root.id);
        facts.emplace(lang::AbsStateFromDatabase(db));
      }
      {
        ScopedSpan span(SpanName::kRewrite, root.id, root.id);
        optimized = ttra::optimizer::OptimizeWithFacts(*parsed, *catalog, *facts);
      }
      {
        ScopedSpan span(EvalSpan(req.cls), root.id, root.id);
        value = lang::EvalExpr(*optimized, db);
      }
    } while (false);
    const int64_t t1 = NowNs();
    if (root.id != 0) {
      root.start_ns = t0;
      root.end_ns = t1;
      Tracer::Record(root);
    }
    if (!value.ok()) return Fail(text + ": " + value.status().ToString());
    stats_.query_us.Add(t1, static_cast<double>(t1 - t0) / 1e3);
    if (optimized->ToString() != parsed->ToString()) ++stats_.changed;
    if (root.id != 0) {
      stats_.rows_in += rows_in;
      stats_.rows_out += static_cast<double>(ResultSize(*value));
    }
    if (stats_.queries % kCheckEvery == 0) {
      auto plain = lang::EvalExpr(*parsed, db);
      if (!plain.ok() || !(*plain == *value)) {
        Mismatch(text + ": optimized and unoptimized results differ");
      }
    }
    if (req.cls == ReadClass::kPoint) {
      const StateDigest got = std::visit(
          [](const auto& s) {
            return StateDigest{s.Hash(), static_cast<uint32_t>(s.size())};
          },
          *value);
      if (got.hash != v.digest.hash || got.size != v.digest.size) {
        Mismatch(text + " differs from the state written at that transaction");
      }
    }
  }

  const Inputs& inputs_;
  const History& history_;
  ReadStats& stats_;
};

/// One session open, timed as a rollback-layer span.
ttra::Session OpenSession(const Engine& engine) {
  ScopedSpan span(SpanName::kOpenSession);
  return engine.OpenSession();
}

// --- Lifecycle ---------------------------------------------------------------

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// The process's peak resident set since it started or since the last
/// ResetPeakRss().
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

/// Lowers the peak resident set to the current one (Linux clear_refs
/// "5"), so that each pass reports its own peak. Where the kernel refuses,
/// the peak stays the run's so far.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

void FreshDir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

/// Stops `engine`, then times `count` recoveries of its directory, checks
/// the recovered database is byte-equal to the one before the stop, and
/// returns the last recovered engine (running) for verification reads.
std::unique_ptr<Engine> StopAndRecover(std::unique_ptr<Engine> engine,
                                       TracedEnv& env, const std::string& dir,
                                       size_t count,
                                       uint64_t commits, RecoverStats& stats) {
  const std::string before = ttra::EncodeDatabase(engine->Snapshot());
  engine->Stop();
  engine.reset();
  stats.stored_bytes_per_commit.push_back(
      static_cast<double>(DirectoryBytes(dir)) / static_cast<double>(commits));
  std::unique_ptr<Engine> recovered;
  for (size_t i = 0; i < count; ++i) {
    if (recovered != nullptr) recovered->Stop();
    recovered = std::make_unique<Engine>(&env, dir);
    ++stats.attempted;
    const EnvCounters c0 = env.counters();
    const int64_t t0 = NowNs();
    ttra::Status status;
    {
      ScopedSpan span(SpanName::kRecover);
      status = recovered->Start();
    }
    const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
    const EnvCounters d = env.counters().Minus(c0);
    if (!status.ok()) {
      ++stats.failed;
      Note(stats.problem, "recovery failed: " + status.ToString());
      return nullptr;
    }
    const double read_s = static_cast<double>(d.read_ns()) / 1e9;
    stats.seconds.push_back(seconds);
    stats.read_s.push_back(read_s);
    stats.read_bytes.push_back(static_cast<double>(d.read_bytes()));
    stats.replay_s.push_back(seconds - read_s);
    if (i == 0 && ttra::EncodeDatabase(recovered->Snapshot()) != before) {
      ++stats.mismatches;
      Note(stats.problem, "recovered database differs from the one before Stop()");
    }
  }
  return recovered;
}

/// Everything one run measured, turned into metrics at the end.
struct Collected {
  std::vector<double> setup_s;
  WriteStats writes;
  ReadStats reads;
  RecoverStats recovery;
  /// Read requests over read time, untraced [0] and traced [1].
  Throughput read_rates[2];
  /// Peak resident set per pass.
  std::vector<double> peak_rss_mib;
  /// Failed checks of acks (recovery and read checks count their own).
  uint64_t ack_check_failures = 0;
  std::string problem;

  /// Adds what `o` attempted, failed and found wrong, and nothing it
  /// measured.
  void KeepChecks(const Collected& o) {
    writes.attempted += o.writes.attempted;
    writes.failed += o.writes.failed;
    Note(writes.problem, o.writes.problem);
    reads.attempted += o.reads.attempted;
    reads.failed += o.reads.failed;
    reads.mismatches += o.reads.mismatches;
    Note(reads.problem, o.reads.problem);
    recovery.attempted += o.recovery.attempted;
    recovery.failed += o.recovery.failed;
    recovery.mismatches += o.recovery.mismatches;
    Note(recovery.problem, o.recovery.problem);
    ack_check_failures += o.ack_check_failures;
    Note(problem, o.problem);
  }
};

std::unique_ptr<Engine> StartFresh(TracedEnv& env, const std::string& dir,
                                   std::string& problem) {
  FreshDir(dir);
  auto engine = std::make_unique<Engine>(&env, dir);
  const ttra::Status status = engine->Start();
  if (!status.ok()) {
    Note(problem, "cannot start engine: " + status.ToString());
    return nullptr;
  }
  return engine;
}

// --- ingest ---------------------------------------------------------------------

/// One round on a fresh directory: load, the fixed closed-loop work,
/// stop, a timed recovery and checked reads on the recovered engine.
bool IngestRound(const RunConfig& config, TracedEnv& env, const Prepared& p,
                 size_t& next_read, Collected& out) {
  const std::string dir = config.work_dir + "/round";
  auto engine = StartFresh(env, dir, out.problem);
  if (engine == nullptr) return false;
  History history(p.inputs.relations.size());
  const TransactionNumber floor = Load(*engine, p, history, out.writes);
  std::vector<TransactionNumber> acked;
  ClosedLoopWrites(*engine, env, p, p.inputs.writes.size(), Tracer::enabled(),
                   history, out.writes, acked);
  if (!CheckAcks(acked, out.writes.problem)) {
    ++out.ack_check_failures;
  }
  auto recovered =
      StopAndRecover(std::move(engine), env, dir, 1,
                     p.inputs.load.size() + p.inputs.writes.size(), out.recovery);
  if (recovered == nullptr) return false;
  // Sampled rho(I, N) and queries, checked against the generator's record.
  const ttra::Session session = OpenSession(*recovered);
  Reader reader(p.inputs, history, out.reads);
  const uint64_t reads_before = out.reads.attempted;
  const int64_t r0 = NowNs();
  for (size_t i = 0; i < kVerifyReads; ++i) {
    reader.Run(session, session.epoch(), floor,
               p.reads[next_read++ % p.reads.size()]);
  }
  out.read_rates[Tracer::enabled() ? 1 : 0].Add(
      static_cast<double>(out.reads.attempted - reads_before),
      static_cast<double>(NowNs() - r0) / 1e9);
  recovered->Stop();
  return true;
}

/// Runs `pass(i, sink)` for i = 0, 1, ... until the run's seconds are
/// spent and at least kMinPasses passes after the first are done, or until
/// a pass returns false. The first pass warms the allocator, the page
/// tables and the caches: its checks count, its measurements are dropped.
/// (A cold first pass put one read p99 in ten times the others' in a
/// `mixed` run.) Records each measured pass's peak resident set.
void RepeatPasses(const RunConfig& config, Collected& out,
                  const std::function<bool(size_t, Collected&)>& pass) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  Collected warm;
  const bool warmed = pass(0, warm);
  out.KeepChecks(warm);
  if (!warmed) return;
  for (size_t i = 1; i <= kMinPasses || NowNs() < deadline; ++i) {
    ResetPeakRss();
    if (!pass(i, out)) return;
    out.peak_rss_mib.push_back(PeakRssMiB());
  }
}

void RunIngest(const RunConfig& config, TracedEnv& env, Collected& out) {
  size_t next_read = 0;
  // A pass is a round; a traced run traces every other one.
  RepeatPasses(config, out, [&](size_t round, Collected& sink) {
    Tracer::SetEnabled(false);
    const int64_t t0 = NowNs();
    const Prepared p = Prepare(config.seed, kRoundWrites, kTimetravelRecentShare);
    sink.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    Tracer::SetEnabled(config.trace && round % 2 == 1);
    return IngestRound(config, env, p, next_read, sink);
  });
  Tracer::SetEnabled(false);
}

// --- timetravel / mixed ---------------------------------------------------------

/// Cuts a measured phase into kSliceNs slices and adds each slice's
/// requests and time under the tracing mode it ran in. In a traced run it
/// flips tracing at every boundary, starting untraced.
class Slicer {
 public:
  Slicer(bool trace, int64_t start, uint64_t count)
      : trace_(trace), start_(start), count_(count) {
    Tracer::SetEnabled(false);
  }

  /// `count`: requests completed so far. Closes the slice once it is due.
  void Tick(int64_t now, uint64_t count, Throughput (&rates)[2]) {
    if (now - start_ < kSliceNs) return;
    Close(now, count, rates);
    if (trace_) Tracer::SetEnabled(!Tracer::enabled());
  }

  /// Closes the slice in progress at the end of the phase.
  void Close(int64_t now, uint64_t count, Throughput (&rates)[2]) {
    if (now <= start_) return;
    rates[Tracer::enabled() ? 1 : 0].Add(static_cast<double>(count - count_),
                                         static_cast<double>(now - start_) / 1e9);
    start_ = now;
    count_ = count;
  }

 private:
  const bool trace_;
  int64_t start_;
  uint64_t count_;
};

/// Set-up shared by the read workloads: inputs, then a history of the
/// first kHistoryWrites sentences built through the engine by the
/// closed-loop writer with the operator schedule. The sentences after the
/// history are the open-loop writer's pool.
struct ReadSetup {
  Prepared p;
  std::unique_ptr<History> history;
  std::unique_ptr<Engine> engine;
  TransactionNumber floor = 0;
  uint64_t commits = 0;
};

bool BuildHistory(const RunConfig& config, TracedEnv& env, size_t pool_writes,
                  double recent_share, Collected& out, WriteStats& writes,
                  ReadSetup& setup) {
  const int64_t t0 = NowNs();
  setup.p = Prepare(config.seed, kHistoryWrites + pool_writes, recent_share);
  setup.engine = StartFresh(env, config.work_dir + "/history", out.problem);
  if (setup.engine == nullptr) return false;
  setup.history = std::make_unique<History>(setup.p.inputs.relations.size());
  setup.floor = Load(*setup.engine, setup.p, *setup.history, writes);
  std::vector<TransactionNumber> acked;
  // A traced run records the build's checkpoints and vacuum even where the
  // build itself is untraced (`mixed`, whose open loop runs no vacuum).
  ClosedLoopWrites(*setup.engine, env, setup.p, kHistoryWrites, config.trace,
                   *setup.history, writes, acked);
  if (!CheckAcks(acked, writes.problem)) {
    ++out.ack_check_failures;
  }
  setup.commits = setup.p.inputs.load.size() + kHistoryWrites;
  out.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  return true;
}

void FinishReadPass(const RunConfig& config, TracedEnv& env, ReadSetup& setup,
                    Collected& out) {
  auto recovered = StopAndRecover(std::move(setup.engine), env,
                                  config.work_dir + "/history", kRecoveries,
                                  setup.commits, out.recovery);
  if (recovered != nullptr) recovered->Stop();
}

void RunTimetravel(const RunConfig& config, TracedEnv& env, Collected& out) {
  size_t next_read = 0;
  RepeatPasses(config, out, [&](size_t, Collected& sink) {
    // Set-up and recovery are traced: they are this workload's write path.
    Tracer::SetEnabled(config.trace);
    ReadSetup setup;
    if (!BuildHistory(config, env, 0, kTimetravelRecentShare, sink, sink.writes,
                      setup)) {
      return false;
    }
    const ttra::Session session = OpenSession(*setup.engine);
    Reader reader(setup.p.inputs, *setup.history, sink.reads);
    const int64_t t0 = NowNs();
    const int64_t deadline = t0 + kLoadNs;
    Slicer slicer(config.trace, t0, sink.reads.attempted);
    for (;;) {
      const int64_t now = NowNs();
      if (now >= deadline) {
        slicer.Close(now, sink.reads.attempted, sink.read_rates);
        break;
      }
      slicer.Tick(now, sink.reads.attempted, sink.read_rates);
      reader.Run(session, session.epoch(), setup.floor,
                 setup.p.reads[next_read++ % setup.p.reads.size()]);
    }
    Tracer::SetEnabled(config.trace);
    FinishReadPass(config, env, setup, sink);
    return true;
  });
  Tracer::SetEnabled(false);
}

/// The measured part of a `mixed` pass: the open-loop writer on this
/// thread beside kMixedReaders closed-loop reader threads.
void MixedLoad(const RunConfig& config, TracedEnv& env, ReadSetup& setup,
               Collected& out) {
  Engine& engine = *setup.engine;
  History& history = *setup.history;
  const Prepared& p = setup.p;
  std::atomic<TransactionNumber> recorded{engine.transaction_number()};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads_done{0};
  uint64_t acked = 0;  // collector thread only, read after Close

  // Readers: closed loop, the timetravel mix, a new session every
  // kSessionRequests requests.
  std::vector<ReadStats> reader_stats(kMixedReaders);
  std::vector<std::thread> readers;
  for (size_t k = 0; k < kMixedReaders; ++k) {
    readers.emplace_back([&, k] {
      Reader reader(p.inputs, history, reader_stats[k]);
      size_t i = k * (p.reads.size() / kMixedReaders);
      while (!stop.load(std::memory_order_relaxed)) {
        const ttra::Session session = OpenSession(engine);
        for (size_t j = 0; j < kSessionRequests && !stop.load(); ++j, ++i) {
          const TransactionNumber bound =
              std::min(session.epoch(), recorded.load(std::memory_order_acquire));
          reader.Run(session, bound, setup.floor, p.reads[i % p.reads.size()]);
          reads_done.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Writer: open loop at kMixedCommitRate, timed from each sentence's due
  // time; acks extend the record in commit order (one shard, FIFO).
  const size_t pool_size = p.inputs.writes.size() - kHistoryWrites;
  const int64_t interval_ns = static_cast<int64_t>(1e9 / kMixedCommitRate);
  const int64_t t0 = NowNs();
  const int64_t t_end = t0 + kLoadNs;
  const EnvCounters before = env.counters();
  const size_t slices_before = out.read_rates[0].phases + out.read_rates[1].phases;
  const size_t traced_before = out.read_rates[1].phases;
  Slicer slicer(config.trace, t0, 0);
  int64_t last_ack = t0;
  {
    AckCollector acks(
        0, out.writes, [&](size_t i, const ttra::Result<TransactionNumber>& r) {
          if (!r.ok()) return;
          ++acked;
          history.AddSentence(p.inputs.writes[i], p.write_digests[i], *r);
          recorded.store(*r, std::memory_order_release);
        });
    for (size_t n = 0;; ++n) {
      const int64_t due = t0 + static_cast<int64_t>(n) * interval_ns;
      if (due >= t_end) break;
      const int64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      const int64_t woke = NowNs();
      out.writes.gen_lag_us.push_back(static_cast<double>(woke - due) / 1e3);
      slicer.Tick(woke, reads_done.load(std::memory_order_relaxed), out.read_rates);
      const size_t index = kHistoryWrites + n % pool_size;
      ++out.writes.attempted;
      acks.Push(SubmitOne(engine, p.inputs.writes[index], index, due));
      // Checkpoints only: a vacuum rewrites every segment, and its rare
      // stall would decide the readers' p99 by where it happened to land.
      if ((n + 1) % kCheckpointEvery == 0) {
        OperatorAction(engine, false, out.writes, config.trace);
      }
    }
    OperatorAction(engine, false, out.writes, config.trace);
    last_ack = acks.Close();
  }
  slicer.Close(NowNs(), reads_done.load(), out.read_rates);
  stop.store(true);
  for (std::thread& t : readers) t.join();
  const double wall = static_cast<double>(std::max(last_ack, t0 + 1) - t0) / 1e9;
  out.writes.env = out.writes.env.Plus(env.counters().Minus(before));
  // Slices alternate, so the traced share of the wall time is their share.
  const double slices = static_cast<double>(out.read_rates[0].phases +
                                            out.read_rates[1].phases - slices_before);
  out.writes.traced_wall_s +=
      wall * static_cast<double>(out.read_rates[1].phases - traced_before) /
      std::max(1.0, slices);
  out.writes.rates[config.trace ? 1 : 0].Add(static_cast<double>(acked), wall);
  for (const ReadStats& s : reader_stats) out.reads.Merge(s);
  setup.commits += acked;
}

void RunMixed(const RunConfig& config, TracedEnv& env, Collected& out) {
  RepeatPasses(config, out, [&](size_t, Collected& sink) {
    // Set-up is untraced here: the write path's per-layer numbers come
    // from the open-loop writer, and its commits from the open loop only.
    Tracer::SetEnabled(false);
    ReadSetup setup;
    WriteStats setup_writes;
    const bool built = BuildHistory(config, env, kMixedPool, kMixedRecentShare,
                                    sink, setup_writes, setup);
    sink.writes.attempted += setup_writes.attempted;
    sink.writes.failed += setup_writes.failed;
    if (!setup_writes.problem.empty()) Note(sink.writes.problem, setup_writes.problem);
    if (!built) return false;
    MixedLoad(config, env, setup, sink);
    Tracer::SetEnabled(config.trace);
    FinishReadPass(config, env, setup, sink);
    return true;
  });
  Tracer::SetEnabled(false);
}

// --- Reporting -------------------------------------------------------------------

class MetricSink {
 public:
  explicit MetricSink(RunResult& result) : result_(result) {}

  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    result_.metrics.push_back(Metric{name, value, unit, samples});
  }
  void Median(const std::string& name, const std::vector<double>& v,
              const std::string& unit) {
    if (v.empty()) return Missing(name);
    Add(name, e2ebench::Median(v), unit, v.size());
  }
  void SliceMedian(const std::string& name, const TimedSamples& v,
                   const std::string& unit) {
    if (v.empty()) return Missing(name);
    Add(name, v.SliceMedian(), unit, v.size());
  }
  void TrimmedMean(const std::string& name, const std::vector<double>& v,
                   double trim, const std::string& unit) {
    if (v.empty()) return Missing(name);
    Add(name, e2ebench::TrimmedMean(v, trim), unit, v.size());
  }
  void Rate(const std::string& name, const Throughput& t, const std::string& unit) {
    if (t.count == 0) return Missing(name);
    Add(name, t.rate(), unit, static_cast<uint64_t>(t.count));
  }
  void Pct(const std::string& name, const TimedSamples& v, double q,
           const std::string& unit) {
    const std::optional<double> value = v.ChunkPercentile(q, kTailChunk);
    if (!value.has_value()) {
      if (result_.error.empty()) {
        result_.error = name + ": " + std::to_string(v.size()) +
                        " samples do not support that percentile";
      }
      return;
    }
    Add(name, *value, unit, v.size());
  }
  void Missing(const std::string& name) {
    if (result_.error.empty()) result_.error = name + ": no samples";
  }

 private:
  RunResult& result_;
};

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

void EndToEnd(const Collected& c, RunResult& result) {
  MetricSink m(result);
  m.Median("setup_s", c.setup_s, "s");
  m.Rate("commits_per_s", c.writes.rates[0], "1/s");
  m.SliceMedian("commit_p50_us", c.writes.latency_us, "us");
  m.Pct("commit_p99_us", c.writes.latency_us, 0.99, "us");
  m.Rate("queries_per_s", c.read_rates[0], "1/s");
  m.SliceMedian("query_p50_us", c.reads.query_us, "us");
  m.Pct("query_p99_us", c.reads.query_us, 0.99, "us");
  m.SliceMedian("rho_p50_us", c.reads.rho_us, "us");
  m.Pct("rho_p99_us", c.reads.rho_us, 0.99, "us");
  m.TrimmedMean("recover_s", c.recovery.seconds, kRecoverTrim, "s");
  m.Median("stored_bytes_per_commit", c.recovery.stored_bytes_per_commit, "B");
  m.Median("peak_rss_mb", c.peak_rss_mib, "MiB");
}

void PerLayer(const Collected& c, const std::vector<Span>& spans,
              const RunConfig& config, RunResult& result) {
  const TraceReport t = Summarize(spans);
  auto med = [&](SpanName n) { return t.median_us[static_cast<size_t>(n)]; };
  auto cnt = [&](SpanName n) { return t.count[static_cast<size_t>(n)]; };
  auto tot = [&](SpanName n) { return t.total_us[static_cast<size_t>(n)]; };
  MetricSink m(result);
  const EnvCounters& e = c.writes.env;
  const double commits = static_cast<double>(c.writes.commits);
  const ClassCounters& wal = e.of(FileClass::kWal);
  m.Add("storage.wal.syncs_per_commit", Ratio(wal.syncs, commits), "count", wal.syncs);
  m.Add("storage.wal.bytes_per_commit", Ratio(wal.append_bytes, commits), "B",
        wal.appends);
  m.Add("storage.segment.bytes_per_commit",
        Ratio(e.of(FileClass::kSegment).append_bytes, commits), "B",
        e.of(FileClass::kSegment).appends);
  m.Add("storage.wal.append_us", med(SpanName::kWalAppend), "us", cnt(SpanName::kWalAppend));
  m.Add("storage.wal.sync_us", med(SpanName::kWalSync), "us", cnt(SpanName::kWalSync));
  m.Add("storage.wal.busy_share",
        Ratio((tot(SpanName::kWalAppend) + tot(SpanName::kWalSync)) / 1e6,
              c.writes.traced_wall_s),
        "share", cnt(SpanName::kWalSync));
  m.Add("storage.manifest.syncs_per_checkpoint",
        Ratio(e.of(FileClass::kManifest).syncs, c.writes.operator_actions), "count",
        c.writes.operator_actions);
  m.Add("storage.coordinator.appends_per_commit",
        Ratio(e.of(FileClass::kCoordinator).appends, commits), "count",
        e.of(FileClass::kCoordinator).appends);
  m.Median("storage.recover.read_bytes", c.recovery.read_bytes, "B");
  m.Median("storage.recover.read_s", c.recovery.read_s, "s");
  m.Add("storage.errors", static_cast<double>(e.errors), "count", 1);

  m.Add("rollback.submit_us", med(SpanName::kSubmit), "us", cnt(SpanName::kSubmit));
  m.Median("rollback.ack_wait_us", c.writes.ack_wait_us, "us");
  m.Add("rollback.checkpoint_ms", med(SpanName::kCheckpoint) / 1e3, "ms",
        cnt(SpanName::kCheckpoint));
  m.Add("rollback.vacuum_ms", med(SpanName::kVacuum) / 1e3, "ms", cnt(SpanName::kVacuum));
  m.Median("rollback.recover.replay_s", c.recovery.replay_s, "s");
  m.Add("rollback.findstate_recent_us", med(SpanName::kFindStateRecent), "us",
        cnt(SpanName::kFindStateRecent));
  m.Add("rollback.findstate_far_us", med(SpanName::kFindStateFar), "us",
        cnt(SpanName::kFindStateFar));
  m.Add("rollback.open_session_us", med(SpanName::kOpenSession), "us",
        cnt(SpanName::kOpenSession));
  m.Add("rollback.refused", static_cast<double>(c.writes.failed), "count", 1);

  m.Add("lang.parse_us", med(SpanName::kParse), "us", cnt(SpanName::kParse));
  m.Add("lang.analyze_us", med(SpanName::kAnalyze), "us", cnt(SpanName::kAnalyze));
  m.Add("lang.absint_us", med(SpanName::kAbsint), "us", cnt(SpanName::kAbsint));
  const std::pair<const char*, SpanName> evals[] = {
      {"point", SpanName::kEvalPoint},         {"select", SpanName::kEvalSelect},
      {"join", SpanName::kEvalJoin},           {"diff", SpanName::kEvalDiff},
      {"aggregate", SpanName::kEvalAggregate}, {"temporal", SpanName::kEvalTemporal}};
  for (const auto& [name, span] : evals) {
    m.Add(std::string("lang.eval_us.") + name, med(span), "us", cnt(span));
  }
  m.Add("lang.rows_in_per_row_out", Ratio(c.reads.rows_in, c.reads.rows_out), "ratio",
        c.reads.queries);
  m.Add("optimizer.rewrite_us", med(SpanName::kRewrite), "us", cnt(SpanName::kRewrite));
  m.Add("optimizer.changed_ratio",
        Ratio(static_cast<double>(c.reads.changed), static_cast<double>(c.reads.queries)),
        "ratio", c.reads.queries);

  // Residual and overhead of the workload's primary requests: commits on
  // ingest, reads elsewhere.
  const bool writes_primary = config.workload.rfind("ingest", 0) == 0;
  const size_t commit = static_cast<size_t>(SpanName::kCommit);
  const size_t query = static_cast<size_t>(SpanName::kQuery);
  const size_t rho = static_cast<size_t>(SpanName::kRho);
  m.Add("trace.residual_share",
        writes_primary ? Ratio(t.residual_ns[commit], t.root_ns[commit])
                       : Ratio(t.residual_ns[query] + t.residual_ns[rho],
                               t.root_ns[query] + t.root_ns[rho]),
        "share", spans.size());
  const Throughput(&rates)[2] = writes_primary ? c.writes.rates : c.read_rates;
  const Throughput& untraced = rates[0];
  const Throughput& traced = rates[1];
  if (traced.count == 0 || untraced.count == 0) return m.Missing("trace.overhead_share");
  const double base = untraced.rate();
  m.Add("trace.overhead_share", (base - traced.rate()) / base, "share",
        traced.phases + untraced.phases);
}

}  // namespace

RunResult RunWorkload(const RunConfig& config) {
  RunResult result;
  // The directory lies on the checkout's disk. Syncs are counted but do
  // not wait for the device, as on tmpfs: a disk's flush time is not a
  // number a shared host repeats, and fsyncs per commit stand in for it.
  ttra::PosixEnv posix;
  TracedEnv env(&posix, SyncMode::kCountOnly);
  Collected c;
  FreshDir(config.work_dir);
  Tracer::SetEnabled(false);
  if (config.workload == "ingest") {
    RunIngest(config, env, c);
  } else if (config.workload == "timetravel") {
    RunTimetravel(config, env, c);
  } else if (config.workload == "mixed") {
    RunMixed(config, env, c);
  } else {
    result.error = "unknown workload " + config.workload;
    return result;
  }
  Tracer::SetEnabled(false);
  fs::remove_all(config.work_dir);

  for (const std::string* problem :
       {&c.problem, &c.writes.problem, &c.reads.problem, &c.recovery.problem}) {
    if (!problem->empty()) std::cerr << "e2ebench: " << *problem << "\n";
  }
  if (!c.problem.empty()) {
    result.error = c.problem;
    return result;
  }
  result.attempted = c.writes.attempted + c.reads.attempted + c.recovery.attempted;
  result.failed = c.writes.failed + c.reads.failed + c.recovery.failed;
  result.correct = c.reads.mismatches == 0 && c.recovery.mismatches == 0 &&
                   c.ack_check_failures == 0;
  if (!c.writes.gen_lag_us.empty()) {
    const std::optional<double> lag = Percentile(c.writes.gen_lag_us, 0.99);
    std::cerr << "e2ebench: open-loop generator lag p99 "
              << (lag.has_value() ? std::to_string(*lag) + " us" : "unsupported")
              << " (n=" << c.writes.gen_lag_us.size() << ")\n";
  }
  if (config.trace) {
    const std::vector<Span> spans = Tracer::Collect();
    if (!config.trace_file.empty() && !Tracer::WriteTsv(spans, config.trace_file)) {
      std::cerr << "e2ebench: cannot write " << config.trace_file << "\n";
    }
    if (Tracer::dropped() != 0) {
      std::cerr << "e2ebench: " << Tracer::dropped() << " spans dropped\n";
    }
    PerLayer(c, spans, config, result);
  } else {
    EndToEnd(c, result);
  }
  return result;
}

}  // namespace e2ebench
