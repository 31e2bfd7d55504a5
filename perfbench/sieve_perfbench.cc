// Closed-loop benchmark of the Sieve middleware on the TIPPERS world.
//
// Every run executes a fixed operation sequence drawn from --seed (its
// length is --seconds times a fixed nominal rate, so it is count-bounded:
// the same seed always does the same work). Three read op types follow the
// paper's Q1-Q3 at low selectivity (a 1-hour window over 3 days):
//   loc — 2 access points (location surveillance),
//   dev — 5 devices (device surveillance),
//   grp — one user group joined through User_Group_Membership.
// They are drawn 45/45/10 and timed per type; latencies are never pooled.
//
// Workloads (one per process):
//   wire_reads   — 2 client threads x 2 loopback connections to a 3-worker
//                  SieveServer, prepared statements, materialized EXECUTE.
//   adhoc_reads  — SieveMiddleware::Execute of fresh literal SQL: every op
//                  misses the rewrite cache and pays parse + rewrite.
//   policy_churn — in-process PreparedQuery::Execute of the 16 queriers'
//                  48 prepared queries; every 10th op is an AddPolicy.
//
// With --trace 1, after one set-up, the sequence runs untraced (the
// end-to-end metrics and the counters) and then its first three blocks run
// traced: each op's outer call is followed by replays of the same op at the
// next-inner public entry points (in-process session, engine on the
// rewritten and on the unrestricted statement, SieveMiddleware::Rewrite,
// Parser::Parse).
// Replays run after the outer call, so they never change what it does;
// each call is recorded as a span and the spans are written to --spans
// when the run ends.
//
// The last line of stdout is one JSON object: correct/attempted/failed,
// every metric this workload measured, and run metadata.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "parser/parser.h"
#include "server/client.h"
#include "server/server.h"
#include "sieve/middleware.h"
#include "sieve/session.h"
#include "workload/policy_gen.h"
#include "workload/query_gen.h"
#include "workload/tippers.h"

using namespace sieve;          // NOLINT
using namespace sieve::server;  // NOLINT

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Op types and templates
// ---------------------------------------------------------------------------

enum OpType { kLoc = 0, kDev = 1, kGrp = 2, kWrite = 3 };
constexpr int kReadTypes = 3;
constexpr const char* kOpNames[] = {"loc", "dev", "grp", "write"};

// Prepared forms of TippersQueryGenerator's Q1-Q3 at kLow selectivity: the
// same text with each literal replaced by a placeholder.
constexpr const char* kTemplates[kReadTypes] = {
    "SELECT * FROM WiFi_Dataset AS W WHERE W.wifiAP IN (?, ?) AND "
    "W.ts_time BETWEEN ? AND ? AND W.ts_date BETWEEN ? AND ?",
    "SELECT * FROM WiFi_Dataset AS W WHERE W.owner IN (?, ?, ?, ?, ?) AND "
    "W.ts_time BETWEEN ? AND ? AND W.ts_date BETWEEN ? AND ?",
    "SELECT * FROM WiFi_Dataset AS W, User_Group_Membership AS UG "
    "WHERE UG.user_group_id = ? AND UG.user_id = W.owner AND "
    "W.ts_time BETWEEN ? AND ? AND W.ts_date BETWEEN ? AND ?"};

constexpr const char* kProfiles[] = {"faculty", "grad", "staff", "undergrad"};
constexpr int kQueriersPerProfile = 4;
constexpr int kQueriers = 16;
constexpr const char* kPurpose = "Analytics";

// Reads per second of --seconds: a run's read count is --seconds times
// this, fixed so that every run of a seed does identical work whatever the
// machine's speed. At 24 s these are 4,800 (wire_reads), 2,400
// (policy_churn) and 1,200 (adhoc_reads) reads, whole multiples of the
// 400-card read deck, so op-type and profile shares are exact in every
// deck; every op type then has at least 100 samples (a supported p90) and
// loc and dev at least 1,000 (a supported p99) on the first two.
double ReadsPerSecond(const std::string& workload) {
  if (workload == "wire_reads") return 200.0;
  if (workload == "policy_churn") return 100.0;
  return 50.0;  // adhoc_reads: every read also pays a 12-25 ms rewrite
}
// Reads per deck (see ReadDeck). The ops of one deck form a block, and
// ops_per_s is the median of the blocks' throughputs, so a burst of
// interference that slows one block does not move it.
constexpr size_t kDeckSize = 400;
// The traced pass covers the ops of the first kTracedBlocks blocks only:
// replaying every op at five entry points takes several times the untraced
// pass, and a whole traced sequence would not end within the benchmark's
// per-run limit.
constexpr int kTracedBlocks = 3;
// Untimed warm-up reads per timed read.
constexpr double kWarmupShare = 0.1;
// Sampled ops per read type whose rows are checked against the reference
// rewrite.
constexpr int kChecksPerType = 6;
// policy_churn adds an AddPolicy after every (kWriteEvery - 1)-th read, so
// every kWriteEvery-th op is a write.
constexpr int kWriteEvery = 10;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;
// Traced runs replay SieveMiddleware::Rewrite and Parser::Parse on every
// kRewriteReplayEvery-th read only: a rewrite costs 15-25 ms, several times
// a prepared read, and replaying it on every op would make a traced run too
// long to finish within the benchmark's per-run limit.
constexpr size_t kRewriteReplayEvery = 4;

// Seed streams: the timed sequence, the warm-up reads and the check sample
// draw from independent generators.
constexpr uint64_t kStreamTimed = 1;
constexpr uint64_t kStreamWarmup = 2;
constexpr uint64_t kStreamCheck = 3;

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 31;
  return x;
}

template <typename T>
Status StatusOf(const Result<T>& r) {
  return r.ok() ? Status::OK() : r.status();
}

/// Substitutes each `?` of `tmpl` with the SQL literal of the next param.
std::string RenderSql(const char* tmpl, const std::vector<Value>& params) {
  std::string out;
  size_t next = 0;
  for (const char* p = tmpl; *p != '\0'; ++p) {
    if (*p == '?' && next < params.size()) {
      out += params[next++].ToSqlLiteral();
    } else {
      out += *p;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The world: TIPPERS at bench scale, policy corpus, prepared queries
// ---------------------------------------------------------------------------

/// The experiments' TIPPERS world (without baselines) plus the bench
/// queriers and their prepared queries.
struct World : bench::TippersWorld {
  std::vector<QueryMetadata> queriers;  // 4 per profile, profile order
  /// prepared[q][t]: querier q's template t, prepared at set-up (this is
  /// what generates every bench querier's guards).
  std::vector<std::vector<PreparedQuery>> prepared;
  size_t policies = 0;
};

Result<std::unique_ptr<World>> BuildWorld() {
  auto w = std::make_unique<World>();
  w->db = std::make_unique<Database>(EngineProfile::MySqlLike());
  TippersConfig config;
  config.num_devices = 3000;
  config.num_aps = 64;
  config.num_days = 90;
  config.target_events = 250000;
  config.num_groups = 28;
  SIEVE_ASSIGN_OR_RETURN(w->dataset,
                         TippersGenerator(config).Populate(w->db.get()));

  w->sieve = std::make_unique<SieveMiddleware>(w->db.get(),
                                               &w->dataset.groups,
                                               SieveOptions{});
  SIEVE_RETURN_IF_ERROR(w->sieve->Init());
  SIEVE_ASSIGN_OR_RETURN(
      w->policies, TippersPolicyGenerator(PolicyGenConfig{})
                       .Generate(w->dataset, &w->sieve->policies()));

  for (const char* profile : kProfiles) {
    auto top = w->TopQueriers(profile, kQueriersPerProfile);
    if (top.size() != kQueriersPerProfile) {
      return Status::Internal(StrFormat("profile %s has too few queriers",
                                        profile));
    }
    for (auto& ranked : top) {
      w->queriers.push_back({std::move(ranked.first), kPurpose});
    }
  }
  for (const QueryMetadata& md : w->queriers) {
    SieveSession session(w->sieve.get(), md);
    std::vector<PreparedQuery> row;
    for (const char* tmpl : kTemplates) {
      SIEVE_ASSIGN_OR_RETURN(PreparedQuery pq, session.Prepare(tmpl));
      row.push_back(std::move(pq));
    }
    w->prepared.push_back(std::move(row));
  }
  return w;
}

// ---------------------------------------------------------------------------
// Operation sequences
// ---------------------------------------------------------------------------

struct Op {
  OpType type = kLoc;
  int querier = 0;            // index into World::queriers
  std::vector<Value> params;  // bindings of kTemplates[type] (prepared ops)
  std::string sql;            // literal SQL of the op (every read)
  Policy policy;              // kWrite only
  int block = 0;              // deck of the read (a write: of the read before)
  bool check = false;         // sampled for the output check
  bool replay_rewrite = false;  // traced runs replay Rewrite and Parse
};

// Queriers are drawn per profile in proportion to the profile's share of
// the campus population (Section 7.1: 388 faculty, 1,029 staff, 1,428 grad,
// 1,795 undergrad), scaled to 2:4:6:8 out of 20 — then evenly among the
// profile's 4 bench queriers. Faculty and staff hold most grants and cost
// several times more per read than students, so an even split would put
// every p50 on the boundary between the two cost modes.
constexpr int kProfileWeights[4] = {2, 6, 4, 8};  // kProfiles order

/// Cards dealt from a deck reshuffled whenever it runs out, so every full
/// deck's worth of draws holds each card's share exactly rather than in
/// expectation.
template <typename T>
class Deck {
 public:
  explicit Deck(std::vector<T> cards)
      : cards_(std::move(cards)), next_(cards_.size()) {}

  T Draw(Rng* rng) {
    if (next_ == cards_.size()) {
      std::shuffle(cards_.begin(), cards_.end(), rng->gen());
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<T> cards_;
  size_t next_;
};

/// (read type, profile) pairs: 20 types (9 loc, 9 dev, 2 grp) crossed with
/// the 20 weighted profile slots, 400 cards.
Deck<std::pair<OpType, int>> ReadDeck() {
  constexpr OpType kTypes[20] = {kLoc, kLoc, kLoc, kLoc, kLoc, kLoc, kLoc,
                                 kLoc, kLoc, kDev, kDev, kDev, kDev, kDev,
                                 kDev, kDev, kDev, kDev, kGrp, kGrp};
  std::vector<std::pair<OpType, int>> cards;
  for (OpType t : kTypes) {
    for (int p = 0; p < 4; ++p) {
      for (int k = 0; k < kProfileWeights[p]; ++k) cards.emplace_back(t, p);
    }
  }
  return Deck<std::pair<OpType, int>>(std::move(cards));
}

/// Group ids for `grp` reads: every group equally often (group sizes, and
/// so grp costs, differ several-fold).
Deck<int> GroupDeck(const TippersDataset& ds) {
  std::vector<int> groups;
  for (int g = 0; g < ds.config.num_groups; ++g) groups.push_back(g);
  return Deck<int>(std::move(groups));
}

/// A read with TippersQueryGenerator's kLow window and list sizes, as
/// template bindings plus their literal rendering.
Op MakePreparedRead(const TippersDataset& ds, OpType type, int querier,
                    Deck<int>* groups, Rng* rng) {
  Op op;
  op.type = type;
  op.querier = querier;
  if (type == kLoc) {
    for (int64_t ap : rng->Sample(ds.config.num_aps, 2)) {
      op.params.push_back(Value::Int(ap));
    }
  } else if (type == kDev) {
    for (int64_t d : rng->Sample(ds.config.num_devices, 5)) {
      op.params.push_back(Value::Int(d));
    }
  } else {
    op.params.push_back(Value::Int(groups->Draw(rng)));
  }
  int64_t start_h = rng->Uniform(9, 16);
  int64_t d1 = rng->Uniform(0, ds.config.num_days - 4);
  op.params.push_back(Value::Time(start_h * 3600));
  op.params.push_back(Value::Time((start_h + 1) * 3600));
  op.params.push_back(Value::Date(ds.first_day + d1));
  op.params.push_back(Value::Date(ds.first_day + d1 + 3));
  op.sql = RenderSql(kTemplates[type], op.params);
  return op;
}

/// Fresh literal SQL from the paper's query generator (adhoc_reads).
Op MakeAdhocRead(TippersQueryGenerator* gen, OpType type, int querier,
                 Deck<int>* groups, Rng* rng) {
  Op op;
  op.type = type;
  op.querier = querier;
  if (type == kLoc) {
    op.sql = gen->Q1(QuerySelectivity::kLow);
  } else if (type == kDev) {
    op.sql = gen->Q2(QuerySelectivity::kLow);
  } else {
    op.sql = gen->Q3(QuerySelectivity::kLow, groups->Draw(rng));
  }
  return op;
}

/// One advanced policy of a random resident; half are re-addressed to a
/// bench querier from `targets` (purpose Analytics) so they invalidate its
/// prepared queries, the other half keep the generator's querier.
Op MakeWrite(const World& w, const TippersPolicyGenerator& gen,
             const std::vector<int>& residents, int write_no,
             Deck<int>* targets, Rng* rng) {
  Op op;
  op.type = kWrite;
  int device = residents[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(residents.size()) - 1))];
  std::vector<Policy> own = gen.PoliciesForUser(w.dataset, device, true, rng);
  op.policy = own[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(own.size()) - 1))];
  op.querier = -1;
  if (write_no % 2 == 0) {
    op.querier = targets->Draw(rng);
    op.policy.querier = w.queriers[static_cast<size_t>(op.querier)].querier;
    op.policy.purpose = kPurpose;
  }
  return op;
}

/// Indices (into the 16 bench queriers) of the four wire identities: the
/// top querier of each profile, by profile. Client thread 0 drives faculty
/// and undergrad, thread 1 grad and staff, so both carry half the ops.
constexpr int kWireQueriers[4] = {0, kQueriersPerProfile,
                                  2 * kQueriersPerProfile,
                                  3 * kQueriersPerProfile};
constexpr size_t kWireLaneOfProfile[4] = {0, 1, 1, 0};

/// The op sequence of `workload` for one stream: `reads` reads, plus the
/// writes of policy_churn unless `reads_only`. wire_reads splits it into
/// per-client-thread sequences.
std::vector<std::vector<Op>> GenerateOps(const World& w,
                                         const std::string& workload,
                                         uint64_t seed, uint64_t stream,
                                         size_t reads, bool reads_only) {
  Rng rng(StreamSeed(seed, stream));
  TippersQueryGenerator qgen(w.dataset, StreamSeed(seed, stream + 100));
  TippersPolicyGenerator pgen{PolicyGenConfig{}};
  const std::vector<int> residents = w.dataset.ResidentDevices();
  const bool wire = workload == "wire_reads";
  const bool writes = workload == "policy_churn" && !reads_only;
  std::vector<std::vector<Op>> lanes(wire ? 2 : 1);
  Deck<std::pair<OpType, int>> deck = ReadDeck();
  Deck<int> groups = GroupDeck(w.dataset);
  // Queriers are dealt too, four per profile and sixteen as write targets:
  // their costs differ several-fold, and a seed-dependent mix spread the
  // in-process p50s by a quarter across seeds.
  std::vector<Deck<int>> profile_queriers(4, Deck<int>({0, 1, 2, 3}));
  std::vector<int> all_queriers;
  for (int q = 0; q < kQueriers; ++q) all_queriers.push_back(q);
  Deck<int> targets(std::move(all_queriers));
  int written = 0;
  for (size_t i = 0; i < reads; ++i) {
    auto [type, profile] = deck.Draw(&rng);
    const bool replay_rewrite = i % kRewriteReplayEvery == 0;
    const int block = static_cast<int>(i / kDeckSize);
    if (wire) {
      std::vector<Op>& lane = lanes[kWireLaneOfProfile[profile]];
      lane.push_back(MakePreparedRead(w.dataset, type, kWireQueriers[profile],
                                      &groups, &rng));
      lane.back().replay_rewrite = replay_rewrite;
      lane.back().block = block;
      continue;
    }
    int q = profile * kQueriersPerProfile +
            profile_queriers[static_cast<size_t>(profile)].Draw(&rng);
    lanes[0].push_back(
        workload == "adhoc_reads"
            ? MakeAdhocRead(&qgen, type, q, &groups, &rng)
            : MakePreparedRead(w.dataset, type, q, &groups, &rng));
    lanes[0].back().replay_rewrite = replay_rewrite;
    lanes[0].back().block = block;
    if (writes && i % (kWriteEvery - 1) == kWriteEvery - 2) {
      lanes[0].push_back(
          MakeWrite(w, pgen, residents, written++, &targets, &rng));
      lanes[0].back().block = block;
    }
  }
  return lanes;
}

/// Marks kChecksPerType reads of each type (per lane) for the output check,
/// drawn from their own seed stream.
void SampleChecks(std::vector<std::vector<Op>>* lanes, uint64_t seed) {
  Rng rng(StreamSeed(seed, kStreamCheck));
  for (std::vector<Op>& lane : *lanes) {
    for (int t = 0; t < kReadTypes; ++t) {
      std::vector<size_t> idx;
      for (size_t i = 0; i < lane.size(); ++i) {
        if (lane[i].type == t) idx.push_back(i);
      }
      for (int64_t pick : rng.Sample(static_cast<int64_t>(idx.size()),
                                     kChecksPerType)) {
        lane[idx[static_cast<size_t>(pick)]].check = true;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Output check
// ---------------------------------------------------------------------------

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Enforced rows must equal the reference rewrite's rows as a multiset.
Status CheckAgainstReference(SieveMiddleware* mw, const QueryMetadata& md,
                             const std::string& sql,
                             const std::vector<Row>& rows) {
  SIEVE_ASSIGN_OR_RETURN(ResultSet ref, mw->ExecuteReference(sql, md));
  if (Sorted(rows) != Sorted(std::move(ref.rows))) {
    return Status::Internal(StrFormat(
        "rows differ from the reference rewrite (%zu vs %zu) for %s: %s",
        rows.size(), ref.rows.size(), md.querier.c_str(), sql.c_str()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Spans and traced replays
// ---------------------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  int64_t op = 0;       // op id shared by the op's spans
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-thread span buffer; spans stay in memory until the run ends.
class SpanLog {
 public:
  explicit SpanLog(uint64_t id_base) : next_id_(id_base) {}

  uint64_t Record(const char* name, uint64_t parent, int64_t op,
                  Clock::time_point start, Clock::time_point end) {
    Span s;
    s.id = next_id_++;
    s.parent = parent;
    s.op = op;
    s.name = name;
    s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     start.time_since_epoch())
                     .count();
    s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   end.time_since_epoch())
                   .count();
    spans_.push_back(s);
    return s.id;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Per-op durations (ms) at each entry point, from the traced pass.
struct TraceSample {
  int type = 0;
  double outer = 0, session = 0, engine = 0, unrestricted = 0, parse = 0,
         rewrite = 0;
  ExecStats stats;  // engine replay of the rewritten statement
  size_t guards = 0, delta_guards = 0, policies = 0;
  bool has_rewrite = false;  // `rewrite` and `parse` were replayed
  AccessStrategy strategy = AccessStrategy::kIndexGuards;
};

/// What a traced replay needs beyond the op itself.
struct ReplayContext {
  SieveMiddleware* mw = nullptr;
  Database* db = nullptr;
  /// In-process prepared queries indexed like World::prepared (adhoc_reads
  /// prepares its literal SQL per op instead).
  std::vector<std::vector<PreparedQuery>>* session = nullptr;
  std::array<SelectStmtPtr, kReadTypes> parsed_templates;
  /// Held exclusively around the Rewrite replay when other threads' outer
  /// calls hold it shared (traced wire_reads); nullptr otherwise.
  std::shared_mutex* rewrite_mu = nullptr;
};

/// Replays `op` at the entry points inside its outer call (`outer_span`,
/// `outer_ms`) and records one span per call.
Status ReplayOp(ReplayContext* ctx, const QueryMetadata& md, const Op& op,
                int64_t op_id, uint64_t outer_span, double outer_ms,
                bool adhoc, SpanLog* log, TraceSample* sample) {
  sample->type = op.type;
  sample->outer = outer_ms;
  const SieveOptions& opts = ctx->mw->options();

  // In-process session: the prepared query of this op (adhoc: the literal
  // SQL prepared through the cache entry the outer call inserted).
  std::shared_ptr<const PreparedRewrite> rewrite;
  uint64_t session_span = 0;
  if (adhoc) {
    SieveSession session(ctx->mw, md);
    SIEVE_ASSIGN_OR_RETURN(PreparedQuery pq, session.Prepare(op.sql));
    auto t0 = Clock::now();
    auto res = pq.Execute();
    auto t1 = Clock::now();
    SIEVE_RETURN_IF_ERROR(StatusOf(res));
    session_span =
        log->Record("PreparedQuery::Execute", outer_span, op_id, t0, t1);
    sample->session = MsBetween(t0, t1);
    rewrite = pq.rewrite();
  } else {
    PreparedQuery& pq =
        (*ctx->session)[static_cast<size_t>(op.querier)][op.type];
    auto t0 = Clock::now();
    auto res = pq.Execute(op.params);
    auto t1 = Clock::now();
    SIEVE_RETURN_IF_ERROR(StatusOf(res));
    session_span =
        log->Record("PreparedQuery::Execute", outer_span, op_id, t0, t1);
    sample->session = MsBetween(t0, t1);
    rewrite = pq.rewrite();
  }

  // Engine on the bound rewritten statement, then on the unrestricted one.
  {
    SelectStmtPtr bound = rewrite->stmt->Clone();
    SIEVE_RETURN_IF_ERROR(
        BindParameters(bound.get(), adhoc ? std::vector<Value>{} : op.params));
    auto t0 = Clock::now();
    auto res = ctx->db->ExecuteStmt(*bound, &md, opts.timeout_seconds,
                                    opts.num_threads, opts.batch_size);
    auto t1 = Clock::now();
    SIEVE_RETURN_IF_ERROR(StatusOf(res));
    log->Record("Database::ExecuteStmt.rewritten", session_span, op_id, t0, t1);
    sample->engine = MsBetween(t0, t1);
    sample->stats = res->stats;
  }
  {
    SelectStmtPtr plain;
    if (adhoc) {
      SIEVE_ASSIGN_OR_RETURN(plain, Parser::Parse(op.sql));
    } else {
      plain = ctx->parsed_templates[op.type]->Clone();
      SIEVE_RETURN_IF_ERROR(BindParameters(plain.get(), op.params));
    }
    auto t0 = Clock::now();
    auto res = ctx->db->ExecuteStmt(*plain, &md, opts.timeout_seconds,
                                    opts.num_threads, opts.batch_size);
    auto t1 = Clock::now();
    SIEVE_RETURN_IF_ERROR(StatusOf(res));
    log->Record("Database::ExecuteStmt.unrestricted", session_span, op_id, t0,
                t1);
    sample->unrestricted = MsBetween(t0, t1);
  }
  // Rewriter and parser on the op's literal SQL (sampled ops only).
  if (op.replay_rewrite) {
    sample->has_rewrite = true;
    std::unique_lock<std::shared_mutex> exclusive;
    if (ctx->rewrite_mu != nullptr) {
      exclusive = std::unique_lock<std::shared_mutex>(*ctx->rewrite_mu);
    }
    auto t0 = Clock::now();
    auto res = ctx->mw->Rewrite(op.sql, md);
    auto t1 = Clock::now();
    SIEVE_RETURN_IF_ERROR(StatusOf(res));
    uint64_t rewrite_span =
        log->Record("SieveMiddleware::Rewrite", session_span, op_id, t0, t1);
    sample->rewrite = MsBetween(t0, t1);
    auto p0 = Clock::now();
    auto parsed = Parser::Parse(op.sql);
    auto p1 = Clock::now();
    SIEVE_RETURN_IF_ERROR(StatusOf(parsed));
    log->Record("Parser::Parse", rewrite_span, op_id, p0, p1);
    sample->parse = MsBetween(p0, p1);
  }
  for (const TableRewriteInfo& info : rewrite->tables) {
    if (!EqualsIgnoreCase(info.table, "WiFi_Dataset")) continue;
    sample->guards = info.num_guards;
    sample->delta_guards = info.num_delta_guards;
    sample->policies = info.num_policies;
    sample->strategy = info.strategy;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Outcomes of one pass of one lane (client thread).
struct LaneResult {
  std::array<std::vector<double>, 4> latency_ms;  // by OpType
  std::array<uint64_t, kReadTypes> rows{};        // rows returned by type
  std::array<ExecStats, kReadTypes> stats{};      // in-process outer calls
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  /// Rows of the ops sampled for the output check, by op index.
  std::map<size_t, std::vector<Row>> checked_rows;
  std::vector<TraceSample> trace;
  SpanLog spans{0};
  // policy_churn bookkeeping
  uint64_t refreshes = 0;
  double refresh_ms = 0;
  double guard_generation_ms = 0;
  uint64_t guard_regenerations = 0;
  uint64_t bystanders_checked = 0;
  uint64_t bystanders_valid = 0;
  uint64_t writes = 0;
  /// Inline output checks and traced replays, taken out of the wall time.
  double excluded_ms = 0;
  /// Timed ms from the start of the pass to the end of each block's last op
  /// in this lane, by block.
  std::vector<double> block_end_ms;
};

/// Records `now_ms` as the end of the block of op i-1 when op i starts
/// another block or i == ops.size().
void MarkBlockEnd(const std::vector<Op>& ops, size_t i, double now_ms,
                  LaneResult* out) {
  if (i == 0 || (i < ops.size() && ops[i].block == ops[i - 1].block)) return;
  const size_t b = static_cast<size_t>(ops[i - 1].block);
  if (out->block_end_ms.size() <= b) out->block_end_ms.resize(b + 1, 0.0);
  out->block_end_ms[b] = now_ms;
}

void Fail(LaneResult* r, const Status& s) {
  r->failed += 1;
  if (r->errors.size() < 5) r->errors.push_back(s.ToString());
}

/// Nearest-rank percentile of an unsorted sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// True when the percentile has at least ten samples beyond it.
bool Supported(size_t n, double p) {
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  return n >= rank + 10;
}

/// Throughput of one pass: for each block, its ops (all lanes) over the time
/// from the end of the block before to the end of its last lane; the median
/// over the blocks. Every block holds the same op mix (one read deck), and
/// the median ignores the blocks a burst of interference slowed.
double BlockOpsPerSecond(const std::vector<std::vector<Op>>& ops,
                         const std::vector<LaneResult>& results) {
  std::vector<double> count, end;
  for (const std::vector<Op>& lane : ops) {
    for (const Op& op : lane) {
      const size_t b = static_cast<size_t>(op.block);
      if (count.size() <= b) count.resize(b + 1, 0.0);
      count[b] += 1;
    }
  }
  end.assign(count.size(), 0.0);
  for (const LaneResult& r : results) {
    for (size_t b = 0; b < r.block_end_ms.size() && b < end.size(); ++b) {
      end[b] = std::max(end[b], r.block_end_ms[b]);
    }
  }
  std::vector<double> rates;
  for (size_t b = 0; b < count.size(); ++b) {
    const double ms = end[b] - (b == 0 ? 0.0 : end[b - 1]);
    if (ms > 0) rates.push_back(count[b] * 1000.0 / ms);
  }
  if (rates.empty()) return 0.0;
  std::sort(rates.begin(), rates.end());
  const size_t mid = rates.size() / 2;
  return rates.size() % 2 == 1 ? rates[mid]
                               : (rates[mid - 1] + rates[mid]) / 2.0;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

/// Metric object of the result line: {"name": {"value": v, "unit": u}}.
/// Values keep ten significant digits (bench::JsonRow rounds to six).
class Metrics {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    if (!body_.empty()) body_ += ", ";
    body_ += StrFormat("\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                       name.c_str(), value, unit);
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct CliOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, CliOptions* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      o->seconds = std::atof(v);
    } else if (k == "--trace") {
      o->trace = std::atoi(v) != 0;
    } else if (k == "--spans") {
      o->spans_path = v;
    } else {
      return false;
    }
  }
  return (o->workload == "wire_reads" || o->workload == "adhoc_reads" ||
          o->workload == "policy_churn") &&
         o->seconds > 0;
}

/// Refuses builds and environments whose numbers would mislead.
const char* HygieneProblem() {
#ifndef NDEBUG
  return "assertions are on (not an optimized build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return "sanitizer build";
#endif
#endif
  const char* spec = std::getenv("SIEVE_FAULT_SPEC");
  if (spec != nullptr && spec[0] != '\0') return "SIEVE_FAULT_SPEC is set";
  return nullptr;
}

// ---------------------------------------------------------------------------
// Set-up of one workload (repeated for setup_s, the last one kept)
// ---------------------------------------------------------------------------

/// One wire client thread: two connections with their prepared handles,
/// plus in-process prepared queries for its traced session replays.
struct WireLane {
  std::vector<std::unique_ptr<SieveClient>> conns;  // owned connections
  std::vector<SieveClient*> by_querier;             // by querier index
  std::vector<std::array<uint32_t, kReadTypes>> handles;
  std::vector<std::vector<PreparedQuery>> session;  // by querier index
};

struct Setup {
  std::unique_ptr<World> world;
  AuthRegistry auth;
  std::unique_ptr<SieveServer> server;
  std::vector<WireLane> lanes;  // wire_reads

  ~Setup() {
    lanes.clear();
    if (server != nullptr) server->Stop();
  }
};

std::string TokenOf(int querier) { return StrFormat("tok-%d", querier); }

Result<std::unique_ptr<SieveClient>> Connect(uint16_t port, int querier,
                                             std::array<uint32_t, kReadTypes>* h) {
  auto c = std::make_unique<SieveClient>();
  SIEVE_RETURN_IF_ERROR(c->Connect("127.0.0.1", port));
  SIEVE_RETURN_IF_ERROR(StatusOf(c->Hello(TokenOf(querier))));
  for (int t = 0; t < kReadTypes; ++t) {
    SIEVE_ASSIGN_OR_RETURN(WireStatement st, c->Prepare(kTemplates[t]));
    (*h)[static_cast<size_t>(t)] = st.id;
  }
  return c;
}

Result<std::unique_ptr<Setup>> BuildSetup(const CliOptions& o) {
  auto s = std::make_unique<Setup>();
  SIEVE_ASSIGN_OR_RETURN(s->world, BuildWorld());
  World& w = *s->world;
  if (o.workload != "wire_reads") return s;

  for (int q = 0; q < kQueriers; ++q) {
    s->auth.RegisterToken(TokenOf(q), w.queriers[static_cast<size_t>(q)]);
  }
  ServerOptions opts;
  opts.num_workers = 3;  // worker 0 serves only the cursor lane
  s->server = std::make_unique<SieveServer>(w.sieve.get(), &s->auth, opts);
  SIEVE_RETURN_IF_ERROR(s->server->Start());
  s->lanes.resize(2);
  for (size_t lane = 0; lane < 2; ++lane) {
    WireLane& wl = s->lanes[lane];
    wl.by_querier.assign(kQueriers, nullptr);
    wl.handles.resize(kQueriers);
    wl.session.resize(kQueriers);
    for (size_t profile = 0; profile < 4; ++profile) {
      if (kWireLaneOfProfile[profile] != lane) continue;
      int q = kWireQueriers[profile];
      SIEVE_ASSIGN_OR_RETURN(
          auto c, Connect(s->server->port(), q,
                          &wl.handles[static_cast<size_t>(q)]));
      wl.by_querier[static_cast<size_t>(q)] = c.get();
      wl.conns.push_back(std::move(c));
      if (o.trace) {
        SieveSession session(w.sieve.get(), w.queriers[static_cast<size_t>(q)]);
        for (const char* tmpl : kTemplates) {
          SIEVE_ASSIGN_OR_RETURN(PreparedQuery pq, session.Prepare(tmpl));
          wl.session[static_cast<size_t>(q)].push_back(std::move(pq));
        }
      }
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Passes over the op sequence
// ---------------------------------------------------------------------------

struct RunContext {
  Setup* setup = nullptr;
  const CliOptions* cli = nullptr;
  bool timed = true;    // false for the warm-up pass (no bookkeeping)
  bool traced = false;  // replay each op at the inner entry points
};

void FillReplayContext(Setup* s, ReplayContext* ctx) {
  ctx->mw = s->world->sieve.get();
  ctx->db = s->world->db.get();
  for (int t = 0; t < kReadTypes; ++t) {
    ctx->parsed_templates[static_cast<size_t>(t)] =
        Parser::Parse(kTemplates[t]).value();
  }
}

/// In traced wire runs, outer calls hold `rewrite_mu` shared and Rewrite
/// replays hold it exclusively: SieveMiddleware::Rewrite takes the state
/// gate exclusively, and must not stall the other lane's outer call.
/// `*origin` is the start of the pass, set before `go`.
void RunWireLane(RunContext* rc, size_t lane_no, const std::vector<Op>& ops,
                 std::atomic<int>* ready, const std::atomic<bool>* go,
                 const Clock::time_point* origin,
                 std::shared_mutex* rewrite_mu, LaneResult* out) {
  WireLane& lane = rc->setup->lanes[lane_no];
  World& w = *rc->setup->world;
  const bool trace = rc->traced;
  ReplayContext ctx;
  if (trace) {
    FillReplayContext(rc->setup, &ctx);
    ctx.session = &lane.session;
    ctx.rewrite_mu = rewrite_mu;
  }
  out->spans = SpanLog((lane_no + 1) << 40);
  ready->fetch_add(1);
  while (!go->load(std::memory_order_acquire)) std::this_thread::yield();
  for (size_t i = 0; i < ops.size(); ++i) {
    MarkBlockEnd(ops, i, MsBetween(*origin, Clock::now()), out);
    const Op& op = ops[i];
    SieveClient* c = lane.by_querier[static_cast<size_t>(op.querier)];
    uint32_t h = lane.handles[static_cast<size_t>(op.querier)][op.type];
    std::shared_lock<std::shared_mutex> outer_lock(*rewrite_mu,
                                                   std::defer_lock);
    if (trace) outer_lock.lock();
    auto t0 = Clock::now();
    auto res = c->Execute(h, op.params);
    auto t1 = Clock::now();
    if (trace) outer_lock.unlock();
    if (!rc->timed) {
      if (!res.ok()) Fail(out, res.status());
      continue;
    }
    out->attempted += 1;
    if (!res.ok()) {
      Fail(out, res.status());
      continue;
    }
    out->latency_ms[op.type].push_back(MsBetween(t0, t1));
    out->rows[op.type] += res->rows.size();
    if (op.check) out->checked_rows[i] = std::move(res->rows);
    if (trace) {
      int64_t op_id = static_cast<int64_t>((lane_no << 32) | i);
      uint64_t span = out->spans.Record("SieveClient::Execute", 0, op_id, t0, t1);
      TraceSample sample;
      Status st = ReplayOp(&ctx, w.queriers[static_cast<size_t>(op.querier)],
                           op, op_id, span, MsBetween(t0, t1), false,
                           &out->spans, &sample);
      if (!st.ok()) {
        Fail(out, st);
      } else {
        out->trace.push_back(std::move(sample));
      }
    }
  }
  MarkBlockEnd(ops, ops.size(), MsBetween(*origin, Clock::now()), out);
}

/// Runs the wire lanes concurrently; returns the timed wall-clock ms.
double RunWire(RunContext* rc, std::vector<std::vector<Op>>& lanes,
               std::vector<LaneResult>* results) {
  results->assign(lanes.size(), LaneResult{});
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point t0;
  std::shared_mutex rewrite_mu;
  std::vector<std::thread> threads;
  for (size_t l = 0; l < lanes.size(); ++l) {
    threads.emplace_back(RunWireLane, rc, l, std::cref(lanes[l]), &ready, &go,
                         &t0, &rewrite_mu, &(*results)[l]);
  }
  while (ready.load() < static_cast<int>(lanes.size())) {
    std::this_thread::yield();
  }
  t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  return MsBetween(t0, Clock::now());
}

/// adhoc_reads and policy_churn: one thread, in-process.
double RunInProcess(RunContext* rc, std::vector<Op>& ops, LaneResult* out) {
  World& w = *rc->setup->world;
  SieveMiddleware* mw = w.sieve.get();
  const bool adhoc = rc->cli->workload == "adhoc_reads";
  const bool trace = rc->traced;
  ReplayContext ctx;
  if (trace) {
    FillReplayContext(rc->setup, &ctx);
    // policy_churn replays PreparedQuery::Execute too, so that every layer
    // difference is taken between replays that run equally warm, and the
    // session sample never includes a refresh (that is the dynamic layer's).
    if (!adhoc) ctx.session = &w.prepared;
  }
  out->spans = SpanLog(1);
  auto wall0 = Clock::now();
  auto timed_ms = [&] { return MsBetween(wall0, Clock::now()) - out->excluded_ms; };
  for (size_t i = 0; i < ops.size(); ++i) {
    MarkBlockEnd(ops, i, timed_ms(), out);
    const Op& op = ops[i];
    if (op.type == kWrite) {
      // Bystanders: prepared queries of queriers the new grant does not
      // reach (directly or through a group) that are valid before the
      // write must stay valid after it (keyed invalidation).
      std::vector<const PreparedQuery*> bystanders;
      for (int q = 0; q < kQueriers; ++q) {
        if (GrantMatchesMetadata(op.policy.querier, op.policy.purpose,
                                 w.queriers[static_cast<size_t>(q)],
                                 &w.dataset.groups)) {
          continue;
        }
        for (const PreparedQuery& pq : w.prepared[static_cast<size_t>(q)]) {
          if (!pq.rewrite()->stale()) bystanders.push_back(&pq);
        }
      }
      auto t0 = Clock::now();
      auto res = mw->AddPolicy(op.policy);
      auto t1 = Clock::now();
      out->attempted += 1;
      out->writes += 1;
      if (!res.ok()) {
        Fail(out, res.status());
        continue;
      }
      out->latency_ms[kWrite].push_back(MsBetween(t0, t1));
      if (trace) out->spans.Record("SieveMiddleware::AddPolicy", 0,
                                   static_cast<int64_t>(i), t0, t1);
      for (const PreparedQuery* pq : bystanders) {
        out->bystanders_checked += 1;
        if (!pq->rewrite()->stale()) out->bystanders_valid += 1;
      }
      continue;
    }
    const QueryMetadata& md = w.queriers[static_cast<size_t>(op.querier)];
    PreparedQuery& pq = w.prepared[static_cast<size_t>(op.querier)][op.type];
    const bool refreshed = !adhoc && pq.rewrite()->stale();
    auto t0 = Clock::now();
    Result<ResultSet> res =
        adhoc ? mw->Execute(op.sql, md) : pq.Execute(op.params);
    auto t1 = Clock::now();
    if (!rc->timed) {
      if (!res.ok()) Fail(out, res.status());
      continue;
    }
    out->attempted += 1;
    if (!res.ok()) {
      Fail(out, res.status());
      continue;
    }
    const double ms = MsBetween(t0, t1);
    out->latency_ms[op.type].push_back(ms);
    out->rows[op.type] += res->rows.size();
    out->stats[op.type].Add(res->stats);
    if (refreshed) {
      out->refreshes += 1;
      out->refresh_ms += ms;
      for (const TableRewriteInfo& info : pq.rewrite()->tables) {
        if (info.regenerated_guards) {
          out->guard_regenerations += 1;
          out->guard_generation_ms += info.guard_generation_ms;
        }
      }
    }
    if (op.check) {
      if (rc->cli->workload == "policy_churn") {
        // Policies change during the run: check at the op's own policy
        // state, right away, and take the check out of the wall time.
        auto c0 = Clock::now();
        Status st = CheckAgainstReference(mw, md, op.sql, res->rows);
        if (!st.ok()) Fail(out, st);
        out->excluded_ms += MsBetween(c0, Clock::now());
      } else {
        out->checked_rows[i] = std::move(res->rows);
      }
    }
    if (trace) {
      auto r0 = Clock::now();
      const char* name =
          adhoc ? "SieveMiddleware::Execute" : "PreparedQuery::Execute";
      uint64_t span =
          out->spans.Record(name, 0, static_cast<int64_t>(i), t0, t1);
      TraceSample sample;
      Status st = ReplayOp(&ctx, md, op, static_cast<int64_t>(i), span, ms,
                           adhoc, &out->spans, &sample);
      if (!st.ok()) {
        Fail(out, st);
      } else {
        out->trace.push_back(std::move(sample));
      }
      out->excluded_ms += MsBetween(r0, Clock::now());
    }
  }
  MarkBlockEnd(ops, ops.size(), timed_ms(), out);
  return timed_ms();
}

/// One pass over `ops`; returns the timed wall-clock ms.
double RunPass(RunContext* rc, std::vector<std::vector<Op>>& ops,
               std::vector<LaneResult>* results) {
  if (rc->cli->workload == "wire_reads") return RunWire(rc, ops, results);
  results->assign(1, LaneResult{});
  return RunInProcess(rc, ops[0], &(*results)[0]);
}

/// Checks the reads a pass kept rows for (wire_reads and adhoc_reads are
/// read-only, so the policy state is still the one the pass ran under;
/// policy_churn checked its sample inline). Returns the number of sampled
/// reads checked.
uint64_t CheckSampled(World& w, const std::string& workload,
                      const std::vector<std::vector<Op>>& ops,
                      std::vector<LaneResult>* results) {
  uint64_t checked = 0;
  for (size_t l = 0; l < results->size(); ++l) {
    LaneResult& r = (*results)[l];
    for (auto& [idx, rows] : r.checked_rows) {
      const Op& op = ops[l][idx];
      const QueryMetadata& md = w.queriers[static_cast<size_t>(op.querier)];
      Status st = CheckAgainstReference(w.sieve.get(), md, op.sql, rows);
      if (st.ok() && workload == "wire_reads") {
        // The wire reply must also match the in-process session's rows.
        auto local = w.prepared[static_cast<size_t>(op.querier)][op.type]
                         .Execute(op.params);
        if (!local.ok()) {
          st = local.status();
        } else if (Sorted(rows) != Sorted(std::move(local->rows))) {
          st = Status::Internal("wire rows differ from in-process rows: " +
                                op.sql);
        }
      }
      checked += 1;
      if (!st.ok()) Fail(&r, st);
    }
    for (const Op& op : ops[l]) {
      if (op.check && workload == "policy_churn") checked += 1;
    }
  }
  return checked;
}

/// Sums the lanes of one pass.
LaneResult Merge(const std::vector<LaneResult>& results) {
  LaneResult all;
  for (const LaneResult& r : results) {
    for (int t = 0; t < 4; ++t) {
      all.latency_ms[t].insert(all.latency_ms[t].end(), r.latency_ms[t].begin(),
                               r.latency_ms[t].end());
    }
    for (int t = 0; t < kReadTypes; ++t) {
      all.rows[t] += r.rows[t];
      all.stats[t].Add(r.stats[t]);
    }
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.errors.insert(all.errors.end(), r.errors.begin(), r.errors.end());
    all.trace.insert(all.trace.end(), r.trace.begin(), r.trace.end());
    all.refreshes += r.refreshes;
    all.refresh_ms += r.refresh_ms;
    all.guard_generation_ms += r.guard_generation_ms;
    all.guard_regenerations += r.guard_regenerations;
    all.bystanders_checked += r.bystanders_checked;
    all.bystanders_valid += r.bystanders_valid;
    all.writes += r.writes;
  }
  return all;
}

/// The ops of the first kTracedBlocks blocks of each lane.
std::vector<std::vector<Op>> TracedOps(const std::vector<std::vector<Op>>& ops) {
  std::vector<std::vector<Op>> out;
  for (const std::vector<Op>& lane : ops) {
    out.emplace_back();
    for (const Op& op : lane) {
      if (op.block < kTracedBlocks) out.back().push_back(op);
    }
  }
  return out;
}

/// Latencies by op type that the pass giving `results` measured for the
/// ops of `prefix`, a prefix of each of its lanes.
std::array<std::vector<double>, 4> PrefixLatencies(
    const std::vector<std::vector<Op>>& prefix,
    const std::vector<LaneResult>& results) {
  std::array<std::vector<double>, 4> out;
  for (size_t l = 0; l < prefix.size(); ++l) {
    std::array<size_t, 4> n{};
    for (const Op& op : prefix[l]) n[op.type] += 1;
    for (size_t t = 0; t < 4; ++t) {
      const std::vector<double>& v = results[l].latency_ms[t];
      out[t].insert(out[t].end(), v.begin(),
                    v.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(n[t], v.size())));
    }
  }
  return out;
}

/// Per-layer metrics from the traced pass; `untraced_ms` holds the untraced
/// pass's latencies of the same ops, for the tracing overhead.
void SetLayerMetrics(const LaneResult& traced,
                     const std::array<std::vector<double>, 4>& untraced_ms,
                     bool wire, Metrics* m) {
  std::array<size_t, 3> strategies{};
  for (int t = 0; t < kReadTypes; ++t) {
    std::vector<double> outer, server, session, engine, unrestricted, parse,
        rewrite;
    ExecStats stats;
    double guards = 0, delta = 0, policies = 0;
    size_t n = 0;
    for (const TraceSample& s : traced.trace) {
      if (s.type != t) continue;
      ++n;
      outer.push_back(s.outer);
      // The outer call of the in-process workloads bypasses the server.
      server.push_back(wire ? s.outer - s.session : 0.0);
      session.push_back(s.session - s.engine);
      engine.push_back(s.engine);
      unrestricted.push_back(s.unrestricted);
      if (s.has_rewrite) {
        parse.push_back(s.parse);
        rewrite.push_back(s.rewrite);
      }
      stats.Add(s.stats);
      guards += static_cast<double>(s.guards);
      delta += static_cast<double>(s.delta_guards);
      policies += static_cast<double>(s.policies);
      strategies[static_cast<size_t>(s.strategy)] += 1;
    }
    if (n == 0) continue;
    const std::string o = kOpNames[t];
    const double dn = static_cast<double>(n);
    const double rows_read =
        static_cast<double>(stats.tuples_scanned + stats.index_probe_rows);
    m->Set("trace.outer_p50_ms." + o, Median(outer), "ms");
    m->Set("trace.overhead_ms." + o,
           Median(traced.latency_ms[t]) - Median(untraced_ms[t]), "ms");
    m->Set("server.overhead_ms." + o, Median(server), "ms");
    m->Set("session.overhead_ms." + o, Median(session), "ms");
    m->Set("engine.execute_ms." + o, Median(engine), "ms");
    m->Set("engine.unrestricted_ms." + o, Median(unrestricted), "ms");
    m->Set("engine.enforcement_ratio." + o,
           Median(engine) / std::max(Median(unrestricted), 1e-9), "ratio");
    m->Set("rewriter.rewrite_ms." + o, Median(rewrite), "ms");
    m->Set("parser.parse_ms." + o, Median(parse), "ms");
    m->Set("engine.rows_read." + o, rows_read, "count");
    m->Set("engine.comparisons." + o, static_cast<double>(stats.comparisons),
           "count");
    m->Set("engine.policy_evals." + o, static_cast<double>(stats.policy_evals),
           "count");
    m->Set("engine.delta_checks." + o,
           static_cast<double>(stats.udf_policy_checks), "count");
    m->Set("engine.rows_out." + o, static_cast<double>(stats.rows_output),
           "count");
    m->Set("engine.rows_out_per_row_read." + o,
           static_cast<double>(stats.rows_output) / std::max(rows_read, 1.0),
           "ratio");
    m->Set("rewriter.guards." + o, guards / dn, "count");
    m->Set("rewriter.delta_guards." + o, delta / dn, "count");
    m->Set("rewriter.policies." + o, policies / dn, "count");
    // The layers of the outer call, summed, against the outer median.
    m->Set("trace.reconcile." + o,
           (Median(server) + Median(session) + Median(engine)) /
               std::max(Median(outer), 1e-9),
           "ratio");
  }
  m->Set("rewriter.strategy.linear_scan",
         static_cast<double>(
             strategies[static_cast<size_t>(AccessStrategy::kLinearScan)]),
         "count");
  m->Set("rewriter.strategy.index_query",
         static_cast<double>(
             strategies[static_cast<size_t>(AccessStrategy::kIndexQuery)]),
         "count");
  m->Set("rewriter.strategy.index_guards",
         static_cast<double>(
             strategies[static_cast<size_t>(AccessStrategy::kIndexGuards)]),
         "count");
}

bool WriteSpans(const std::string& path,
                const std::vector<LaneResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const LaneResult& r : results) {
    for (const Span& s : r.spans.spans()) {
      std::fprintf(f,
                   "{\"id\": %llu, \"parent\": %llu, \"op\": %lld, "
                   "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.op), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) {
    std::fprintf(stderr,
                 "usage: sieve_perfbench --workload wire_reads|adhoc_reads|"
                 "policy_churn --seed N --seconds S [--trace 0|1] "
                 "[--spans PATH]\n");
    return 2;
  }
  if (const char* problem = HygieneProblem()) {
    std::fprintf(stderr, "refusing to report numbers: %s\n", problem);
    return 3;
  }

  // ---- Set-up, repeated; the median is setup_s and the last one is kept.
  // Traced runs report no setup_s and set up once.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < (cli.trace ? 1 : kSetupReps); ++rep) {
    setup.reset();
    auto t0 = Clock::now();
    auto built = BuildSetup(cli);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    setup = std::move(built).value();
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
  }
  World& w = *setup->world;
  SieveMiddleware* mw = w.sieve.get();
  const bool wire = cli.workload == "wire_reads";

  const size_t reads = static_cast<size_t>(
      std::llround(cli.seconds * ReadsPerSecond(cli.workload)));
  const size_t warmup_reads =
      std::max<size_t>(20, static_cast<size_t>(kWarmupShare * reads));
  std::vector<std::vector<Op>> ops =
      GenerateOps(w, cli.workload, cli.seed, kStreamTimed, reads, false);
  SampleChecks(&ops, cli.seed);
  std::vector<std::vector<Op>> warmup =
      GenerateOps(w, cli.workload, cli.seed, kStreamWarmup, warmup_reads, true);

  // ---- Warm-up (reads only: the policy state is unchanged).
  RunContext rc;
  rc.setup = setup.get();
  rc.cli = &cli;
  rc.timed = false;
  std::vector<LaneResult> results;
  RunPass(&rc, warmup, &results);
  for (const LaneResult& r : results) {
    if (r.failed > 0) {
      std::fprintf(stderr, "warm-up failed: %s\n", r.errors.front().c_str());
      return 1;
    }
  }

  // ---- Timed phase, untraced, bracketed by counter snapshots.
  rc.timed = true;
  MiddlewareHealth h0 = mw->Health();
  SieveServer::Stats s0;
  if (setup->server != nullptr) s0 = setup->server->stats();
  const double wall_ms = RunPass(&rc, ops, &results);
  MiddlewareHealth h1 = mw->Health();
  SieveServer::Stats s1;
  if (setup->server != nullptr) s1 = setup->server->stats();
  uint64_t checked = CheckSampled(w, cli.workload, ops, &results);
  LaneResult all = Merge(results);
  const uint64_t completed = all.attempted - all.failed;
  const uint64_t rejected =
      (s1.rate_limited - s0.rate_limited) +
      (s1.in_flight_rejected - s0.in_flight_rejected) +
      (s1.protocol_errors - s0.protocol_errors);

  Metrics m;
  m.Set("setup_s", Median(setup_s), "s");
  m.Set("ops_per_s", BlockOpsPerSecond(ops, results), "1/s");
  m.Set("wall_ops_per_s", static_cast<double>(completed) / (wall_ms / 1000.0),
        "1/s");
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  for (int t = 0; t < 4; ++t) {
    const std::vector<double>& v = all.latency_ms[t];
    if (v.empty()) continue;
    std::string name = kOpNames[t];
    m.Set(name + "_p50_ms", Percentile(v, 0.5), "ms");
    if (Supported(v.size(), 0.9)) m.Set(name + "_p90_ms", Percentile(v, 0.9), "ms");
    if (Supported(v.size(), 0.99)) {
      m.Set(name + "_p99_ms", Percentile(v, 0.99), "ms");
    }
  }
  // Exact counters of the untraced timed phase.
  m.Set("cache.hits", static_cast<double>(h1.cache.hits - h0.cache.hits), "count");
  m.Set("cache.misses", static_cast<double>(h1.cache.misses - h0.cache.misses),
        "count");
  m.Set("cache.evictions",
        static_cast<double>(h1.cache.evictions - h0.cache.evictions), "count");
  m.Set("cache.invalidations",
        static_cast<double>(h1.cache.invalidations - h0.cache.invalidations),
        "count");
  m.Set("audit.appended", static_cast<double>(h1.audit_total - h0.audit_total),
        "count");
  m.Set("audit.dropped",
        static_cast<double>(h1.audit_dropped - h0.audit_dropped), "count");
  m.Set("server.frames",
        static_cast<double>(s1.frames_received - s0.frames_received), "count");
  m.Set("server.queries_executed",
        static_cast<double>(s1.queries_executed - s0.queries_executed), "count");
  m.Set("server.rejected", static_cast<double>(rejected), "count");
  m.Set("dynamic.refreshes", static_cast<double>(all.refreshes), "count");
  m.Set("dynamic.guard_regenerations",
        static_cast<double>(all.guard_regenerations), "count");
  m.Set("dynamic.invalidations_per_write",
        all.writes == 0 ? 0.0
                        : static_cast<double>(h1.cache.invalidations -
                                              h0.cache.invalidations) /
                              static_cast<double>(all.writes),
        "ratio");
  m.Set("dynamic.bystander_valid_ratio",
        all.bystanders_checked == 0
            ? 1.0
            : static_cast<double>(all.bystanders_valid) /
                  static_cast<double>(all.bystanders_checked),
        "ratio");
  if (all.refreshes > 0) {
    m.Set("dynamic.refresh_ms", all.refresh_ms / static_cast<double>(all.refreshes),
          "ms");
  }
  if (all.guard_regenerations > 0) {
    m.Set("dynamic.guard_generation_ms",
          all.guard_generation_ms / static_cast<double>(all.guard_regenerations),
          "ms");
  }
  for (int t = 0; t < kReadTypes; ++t) {
    std::string n = kOpNames[t];
    m.Set("rows." + n, static_cast<double>(all.rows[t]), "count");
    if (!wire) {
      const ExecStats& s = all.stats[t];
      m.Set("exec.rows_read." + n,
            static_cast<double>(s.tuples_scanned + s.index_probe_rows), "count");
      m.Set("exec.comparisons." + n, static_cast<double>(s.comparisons), "count");
      m.Set("exec.policy_evals." + n, static_cast<double>(s.policy_evals),
            "count");
      m.Set("exec.delta_checks." + n, static_cast<double>(s.udf_policy_checks),
            "count");
      m.Set("exec.rows_out." + n, static_cast<double>(s.rows_output), "count");
    }
  }

  // ---- Traced pass: the ops of the first kTracedBlocks blocks again, each
  // replayed at the inner entry points. policy_churn adds their policies a
  // second time: the same keys are invalidated, on a corpus larger by the
  // untraced pass's policies.
  if (cli.trace) {
    // adhoc_reads: the traced outer calls must miss the rewrite cache as the
    // untraced ones did.
    if (cli.workload == "adhoc_reads") mw->rewrite_cache().Clear();
    rc.traced = true;
    std::vector<std::vector<Op>> traced_ops = TracedOps(ops);
    std::vector<LaneResult> traced_results;
    RunPass(&rc, traced_ops, &traced_results);
    checked += CheckSampled(w, cli.workload, traced_ops, &traced_results);
    LaneResult traced = Merge(traced_results);
    SetLayerMetrics(traced, PrefixLatencies(traced_ops, results), wire, &m);
    all.attempted += traced.attempted;
    all.failed += traced.failed;
    all.errors.insert(all.errors.end(), traced.errors.begin(),
                      traced.errors.end());
    if (!cli.spans_path.empty() && !WriteSpans(cli.spans_path, traced_results)) {
      std::fprintf(stderr, "cannot write %s\n", cli.spans_path.c_str());
      return 1;
    }
  }

  size_t op_count = 0;
  for (const std::vector<Op>& lane : ops) op_count += lane.size();
  size_t blocks = 0;
  for (const std::vector<Op>& lane : ops) {
    if (!lane.empty()) {
      blocks = std::max(blocks, static_cast<size_t>(lane.back().block) + 1);
    }
  }
  std::string errors;
  for (const std::string& e : all.errors) {
    if (!errors.empty()) errors += " | ";
    for (char c : e) errors += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  bench::JsonRow info;
  info.Set("workload", cli.workload)
      .Set("seed", static_cast<int64_t>(cli.seed))
      .Set("ops", static_cast<int64_t>(op_count))
      .Set("reads", static_cast<int64_t>(reads))
      .Set("blocks", static_cast<int64_t>(blocks))
      .Set("warmup_reads", static_cast<int64_t>(warmup_reads))
      .Set("timed_wall_s", wall_ms / 1000.0)
      .Set("checked_ops", static_cast<int64_t>(checked))
      .Set("writes", static_cast<int64_t>(all.writes))
      .Set("policies_at_start", static_cast<int64_t>(w.policies))
      .Set("events", static_cast<int64_t>(w.dataset.num_events))
      .Set("build_type", std::string(PERFBENCH_BUILD_TYPE))
      .Set("march", std::string(bench::MarchFlag()))
      .Set("vector_width_bits", bench::SimdVectorWidthBits())
      .Set("hardware_concurrency",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Set("compiler", std::string(__VERSION__))
      .Set("errors", errors);

  const bool correct = all.failed == 0 && rejected == 0 && completed > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s, \"info\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.failed), m.str().c_str(),
              info.ToJson().c_str());
  std::fflush(stdout);
  // Server threads and connections go down before the world they serve.
  setup.reset();
  return 0;
}
