// tyder_perfbench: the load generator and layer probe behind perfbench/run.py.
//
//   tyder_perfbench --workload <churn-soak|serve-read|commit-storm>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   --tyderd <path> --work <dir>
//
// Starts a real tyderd on a loopback port over a fresh database under
// <work>, drives one workload from this single process (at most three
// connections), checks every answer, restarts tyderd on the store to time
// recovery, and prints one JSON object as its last stdout line:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs three
// repetitions (untraced, traced with client spans and tyderd's stats
// series, untraced again), replays the traced repetition's mutations in
// process under an obs::Tracer and through a counting storage::Env, and
// reports the per-layer metrics. See perfbench/README.md for the workloads, the
// metrics and the layer -> end-to-end map.

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "methods/dispatch.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "oracle/reference.h"
#include "storage/catalog_snapshot.h"
#include "storage/durable_catalog.h"
#include "storage/env.h"
#include "tools/tyder_stat_parser.h"
#include "workload/random_schema.h"

extern char** environ;

namespace tyder::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Nearest-rank quantile of an unsorted sample; 0 for an empty one.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string Join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workload parameters.

enum class Workload { kChurnSoak, kServeRead, kCommitStorm };

struct Params {
  workload::RandomSchemaOptions schema;
  int connections = 1;
  int baseline_selections = 0;   // serve-read: live views seeded at set-up
  int rounds_per_block = 0;      // churn-soak: one pass over the pool
  int blocks = 0;                // churn-soak: blocks per repetition
  int cycles = 0;                // commit-storm: cycles per writer per repetition
  // A run is round(--seconds / rep_s) repetitions, each on a fresh store.
  // rep_s is serve-read's timed window; churn-soak and commit-storm run
  // fixed work, so for them it only sets the number of repetitions.
  double rep_s = 5;
  int reads_per_round = 0;       // churn-soak
  int writer_period_us = 0;      // serve-read: open-loop writer pace
  double zipf_s = 1.1;           // read skew over the probe lists
};

// The schema is the same for every --seed, so runs on different seeds
// measure one system; the seed drives what the workload does with it.
constexpr uint32_t kSchemaSeed = 1;

// A fault of the program that the benchmark keeps in view: on schemas with
// several methods per generic function, some projections are refused by
// the verifier because the derivation changed existing types' dispatch
// ("derivation broke an invariant: | dispatch of m2(T19) changed | ...").
// The refused requests depend only on the schema and churn-soak's fixed
// order, so every repetition is refused the same ones; they count as
// failed operations, not as failed checks. Any other refusal is a failed
// check.
bool KnownDispatchRefusal(const std::vector<std::string>& body) {
  if (body.size() < 2 || body[0] != "derivation broke an invariant:") return false;
  for (size_t i = 1; i < body.size(); ++i) {
    const std::string& l = body[i];
    if (l.rfind("dispatch of ", 0) != 0 || l.size() < 8 ||
        l.compare(l.size() - 8, 8, " changed") != 0)
      return false;
  }
  return true;
}

Params ParamsFor(Workload w) {
  Params p;
  p.schema.seed = kSchemaSeed;
  p.schema.max_supers = 3;
  p.schema.attrs_per_type = 2;
  p.schema.max_stmts_per_body = 3;
  // Two methods per generic function, so dispatch orders several
  // applicable methods by specificity. On churn-soak's schema this makes
  // the verifier refuse 7 of the 16 pool projections (see
  // KnownDispatchRefusal).
  p.schema.methods_per_gf = 2;
  switch (w) {
    case Workload::kChurnSoak:
      p.schema.num_types = 24;
      p.schema.num_general_methods = 12;
      p.connections = 1;
      p.rounds_per_block = 16;
      p.blocks = 8;
      p.reads_per_round = 4;
      // A repetition takes ~1.7 s of timed phase. Over five seeds run back
      // to back, four per 20 s run let define_p50_ms and recover_s spread
      // 0.15 and 0.26 from run to run, eight 0.04.
      p.rep_s = 2.5;
      break;
    case Workload::kServeRead:
      p.schema.num_types = 32;
      p.schema.num_general_methods = 16;
      p.connections = 3;  // two closed-loop readers + one open-loop writer
      p.baseline_selections = 32;
      p.writer_period_us = 20'000;
      break;
    case Workload::kCommitStorm:
      p.schema.num_types = 8;
      p.schema.num_general_methods = 4;
      p.connections = 3;
      p.cycles = 1200;
      break;
  }
  return p;
}

// ---------------------------------------------------------------------------
// Seeded inputs: the seed schema, and read probes whose answers the
// reference oracle fixes on that schema before the run.

struct SubtypeProbe {
  std::string a, b;
  bool expect = false;
};
struct DispatchProbe {
  std::string gf;
  std::vector<std::string> args;
  std::string expect;  // method label
};

struct Inputs {
  Schema seed;
  std::vector<std::string> user_types;
  std::vector<SubtypeProbe> subtype;
  std::vector<DispatchProbe> dispatch;
  // serve-read's baseline views, defined at set-up and live throughout:
  // one projection (drawn from the schema seed), then selections.
  struct View {
    bool projection = false;
    std::string view, source;
    std::vector<std::string> attrs;
  };
  std::vector<View> baseline;
  // churn-soak's projection requests, drawn once from the schema seed; each
  // block of rounds projects all of them in a --seed-shuffled order.
  std::vector<View> pool;
};

Result<Inputs> MakeInputs(const Params& p, uint32_t seed) {
  TYDER_ASSIGN_OR_RETURN(Schema schema, workload::GenerateRandomSchema(p.schema));
  Inputs in{std::move(schema), {}, {}, {}, {}, {}};
  const TypeGraph& g = in.seed.types();
  std::vector<TypeId> users;
  for (TypeId t = 0; t < g.NumTypes(); ++t) {
    if (g.type(t).kind() != TypeKind::kUser) continue;
    users.push_back(t);
    in.user_types.push_back(g.TypeName(t));
  }
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 7);
  auto pick = [&](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  for (int i = 0; i < 256; ++i) {
    TypeId a = users[pick(users.size())], b = users[pick(users.size())];
    in.subtype.push_back(
        {g.TypeName(a), g.TypeName(b), oracle::RefIsSubtype(g, a, b)});
  }
  // Dispatch probes: random seed-type argument tuples that some method
  // accepts, so no read answers NotFound.
  for (int tries = 0; in.dispatch.size() < 256 && tries < 100'000; ++tries) {
    GfId gf = static_cast<GfId>(pick(in.seed.NumGenericFunctions()));
    std::vector<TypeId> args;
    for (int k = 0; k < in.seed.gf(gf).arity; ++k)
      args.push_back(users[pick(users.size())]);
    Result<MethodId> m = oracle::RefDispatch(in.seed, gf, args);
    if (!m.ok()) continue;
    DispatchProbe probe{in.seed.gf(gf).name.str(), {}, in.seed.method(*m).label.str()};
    for (TypeId t : args) probe.args.push_back(g.TypeName(t));
    in.dispatch.push_back(std::move(probe));
  }
  if (in.dispatch.empty())
    return Status::Internal("seed schema has no dispatchable call");
  for (int i = 0; i < p.rounds_per_block; ++i) {
    TypeId src;
    std::vector<AttrId> attrs;
    if (!workload::PickRandomProjection(in.seed, kSchemaSeed * 7919 + i, &src, &attrs))
      return Status::Internal("seed schema has no projectable type");
    Inputs::View proj{true, "", g.TypeName(src), {}};
    for (AttrId a : attrs) proj.attrs.push_back(g.attribute(a).name.str());
    in.pool.push_back(std::move(proj));
  }
  if (p.baseline_selections > 0) {
    TypeId src;
    std::vector<AttrId> attrs;
    if (!workload::PickRandomProjection(in.seed, kSchemaSeed, &src, &attrs))
      return Status::Internal("seed schema has no projectable type");
    Inputs::View proj{true, "B0", g.TypeName(src), {}};
    for (AttrId a : attrs) proj.attrs.push_back(g.attribute(a).name.str());
    in.baseline.push_back(std::move(proj));
  }
  for (int i = 1; i <= p.baseline_selections; ++i)
    in.baseline.push_back(
        {false, "B" + std::to_string(i), in.user_types[pick(users.size())], {}});
  return in;
}

// Zipf(s) over [0, n): rank 0 is the hottest.
class Zipf {
 public:
  Zipf(size_t n, double s) {
    std::vector<double> w(n);
    for (size_t k = 0; k < n; ++k) w[k] = 1.0 / std::pow(double(k + 1), s);
    dist_ = std::discrete_distribution<size_t>(w.begin(), w.end());
  }
  size_t operator()(std::mt19937_64& rng) { return dist_(rng); }

 private:
  std::discrete_distribution<size_t> dist_;
};

// ---------------------------------------------------------------------------
// tyderd as a child process.

class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  // Spawns `tyderd --db dir ...` and waits for its LISTENING line.
  Status Start(const std::string& tyderd, const std::string& dir,
               const std::string& log, const std::string& stats_jsonl) {
    std::vector<std::string> argv_s = {tyderd, "--db", dir, "--workers", "4",
                                       "--queue", "64", "--max-connections",
                                       "8"};
    if (!stats_jsonl.empty()) {
      argv_s.push_back("--stats-jsonl=" + stats_jsonl);
      argv_s.push_back("--stats-period-ms=200");
    }
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    int out[2];
    // Close-on-exec, so later children do not inherit this pipe; dup2 into
    // the child's stdout clears the flag there.
    if (pipe2(out, O_CLOEXEC) != 0) return Status::Internal("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, out[1], 1);
    posix_spawn_file_actions_addclose(&fa, out[0]);
    posix_spawn_file_actions_addopen(&fa, 2, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    int rc = posix_spawn(&pid_, tyderd.c_str(), &fa, nullptr, argv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&fa);
    close(out[1]);
    if (rc != 0) {
      close(out[0]);
      pid_ = -1;
      return Status::Internal("cannot spawn " + tyderd);
    }
    out_fd_ = out[0];
    std::string line;
    auto deadline = Clock::now() + std::chrono::seconds(120);
    while (line.find('\n') == std::string::npos) {
      pollfd pfd{out_fd_, POLLIN, 0};
      int left = static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                      deadline - Clock::now())
                                      .count());
      if (left <= 0 || poll(&pfd, 1, left) <= 0) break;
      char buf[128];
      ssize_t n = read(out_fd_, buf, sizeof buf);
      if (n <= 0) break;
      line.append(buf, static_cast<size_t>(n));
    }
    if (line.rfind("LISTENING ", 0) != 0) {
      Stop();
      return Status::Internal("tyderd did not start (see " + log + ")");
    }
    port_ = static_cast<uint16_t>(std::atoi(line.c_str() + 10));
    return Status::OK();
  }

  // SIGTERM, then waits; returns the exit status. Peak RSS is kept.
  int Stop() {
    if (pid_ <= 0) return exit_code_;
    kill(pid_, SIGTERM);
    int status = 0;
    rusage ru{};
    while (wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
    peak_rss_kib_ = ru.ru_maxrss;
    exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    return exit_code_;
  }

  uint16_t port() const { return port_; }
  long peak_rss_kib() const { return peak_rss_kib_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
  long peak_rss_kib_ = 0;
  int exit_code_ = 0;
};

// ---------------------------------------------------------------------------
// Operation accounting, shared by every connection's loop.

enum Kind { kProject, kSelect, kDrop, kCollapse, kSave, kRead, kViews, kNumKinds };
const char* const kKindNames[kNumKinds] = {"project", "select", "drop",
                                           "collapse", "save", "read",
                                           "views"};

// One acknowledged mutation, kept for the in-process replays.
struct Op {
  Kind kind;
  std::string view, source;
  std::vector<std::string> attrs;
};

struct Span {
  Kind kind;
  int64_t start_ns, end_ns;
};

struct ConnStats {
  uint64_t attempted[kNumKinds] = {};
  uint64_t failed[kNumKinds] = {};
  std::vector<double> latency[kNumKinds];  // timed phase only, seconds
  std::vector<Op> log;                      // acked mutations, in order
  std::vector<Span> spans;                  // traced phase only
  std::vector<std::pair<size_t, std::string>> subtype_answers;
  std::vector<std::pair<size_t, std::string>> dispatch_answers;
  std::vector<std::string> check_failures;
  std::vector<double> writer_late;  // open-loop lag behind schedule, s
  uint64_t mutations = 0;           // acked, timed phase
  uint64_t reads = 0;               // answered, timed phase

  void Merge(const ConnStats& o) {
    for (int k = 0; k < kNumKinds; ++k) {
      attempted[k] += o.attempted[k];
      failed[k] += o.failed[k];
      latency[k].insert(latency[k].end(), o.latency[k].begin(),
                        o.latency[k].end());
    }
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    subtype_answers.insert(subtype_answers.end(), o.subtype_answers.begin(),
                           o.subtype_answers.end());
    dispatch_answers.insert(dispatch_answers.end(), o.dispatch_answers.begin(),
                            o.dispatch_answers.end());
    check_failures.insert(check_failures.end(), o.check_failures.begin(),
                          o.check_failures.end());
    writer_late.insert(writer_late.end(), o.writer_late.begin(),
                       o.writer_late.end());
    mutations += o.mutations;
    reads += o.reads;
  }
};

// A connection plus its accounting. `timed` switches latency recording on;
// `traced` also keeps a client span per request.
class Conn {
 public:
  Conn(net::Client client, Clock::time_point epoch)
      : client_(std::move(client)), epoch_(epoch) {}

  ConnStats stats;
  bool timed = false;
  bool traced = false;

  // One request; returns the response body on OK, nullopt on any failure
  // (protocol refusal or transport error), which is counted against `kind`
  // and, unless it is a KnownDispatchRefusal of a projection, as a failed
  // check.
  std::optional<std::vector<std::string>> Call(
      Kind kind, const std::string& cmd, const std::vector<std::string>& args,
      Clock::time_point due = Clock::time_point{}) {
    ++stats.attempted[kind];
    Clock::time_point start = Clock::now();
    Result<net::Response> r = client_.Call(cmd, args, 0);
    Clock::time_point end = Clock::now();
    if (!r.ok() || !r->ok()) {
      ++stats.failed[kind];
      if (kind == kProject && r.ok() && KnownDispatchRefusal(r->body)) return std::nullopt;
      std::string why = r.ok() ? Join(r->body, " | ") : r.status().ToString();
      stats.check_failures.push_back(cmd + " " + Join(args, " ") + ": " + why);
      return std::nullopt;
    }
    if (timed) {
      Clock::time_point from = due == Clock::time_point{} ? start : due;
      stats.latency[kind].push_back(
          std::chrono::duration<double>(end - from).count());
      if (kind == kRead || kind == kViews) ++stats.reads;
      else if (kind != kSave) ++stats.mutations;
    }
    if (traced)
      stats.spans.push_back({kind, Ns(start), Ns(end)});
    return std::move(r->body);
  }

  // A logged mutation: on success its op joins the replay log.
  bool Mutate(Op op, Clock::time_point due = Clock::time_point{}) {
    std::vector<std::string> args;
    std::string cmd = kKindNames[op.kind];
    if (op.kind == kProject) args = {op.view, op.source, Join(op.attrs, ",")};
    else if (op.kind == kSelect) args = {op.view, op.source};
    else if (op.kind == kDrop) args = {op.view};
    if (!Call(op.kind, cmd, args, due)) return false;
    stats.log.push_back(std::move(op));
    return true;
  }

  void Subtype(const Inputs& in, size_t i) {
    const SubtypeProbe& p = in.subtype[i];
    auto body = Call(kRead, "query", {"subtype", p.a, p.b});
    if (body) stats.subtype_answers.emplace_back(i, body->empty() ? "" : (*body)[0]);
  }
  void Dispatch(const Inputs& in, size_t i) {
    const DispatchProbe& p = in.dispatch[i];
    std::vector<std::string> args = {"dispatch", p.gf};
    args.insert(args.end(), p.args.begin(), p.args.end());
    auto body = Call(kRead, "query", args);
    if (body) stats.dispatch_answers.emplace_back(i, body->empty() ? "" : (*body)[0]);
  }
  // `query views`: the registered view names.
  std::optional<std::vector<std::string>> Views() {
    return Call(kViews, "query", {"views"});
  }

 private:
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }

  net::Client client_;
  Clock::time_point epoch_;
};

// ---------------------------------------------------------------------------
// One wire run: set-up, timed phase, shutdown, recovery, checks.

// What a run measured over its repetitions; per-rep figures are reported
// as medians.
struct WireResult {
  std::vector<double> setup_s, recover_s, db_kib, rss_mib;
  double timed_s = 0;  // summed over reps
  ConnStats stats;     // merged over reps
  std::vector<uint64_t> rep_failed;   // failed operations, per rep
  std::vector<std::vector<Op>> logs;  // last rep, per connection, set-up included
  std::string db_dir;                 // last rep
  tyder_stat::StatsLine server_stats;  // traced runs only
};

struct Run {
  Workload workload;
  Params params;
  const Inputs& in;
  uint32_t seed;
  double seconds;
  std::string tyderd;
  std::string work;

  // A live set-up: a seeded store, a serving tyderd, open connections.
  struct Live {
    std::string dir;
    std::unique_ptr<Daemon> daemon;
    std::vector<std::unique_ptr<Conn>> conns;
    uint64_t seed_lsn = 0;
  };

  Result<uint64_t> HealthLsn(Conn& c) {
    auto body = c.Call(kRead, "health", {});
    if (!body) return Status::Internal("health failed");
    for (const std::string& line : *body)
      if (line.rfind("lsn ", 0) == 0) return std::stoull(line.substr(4));
    return Status::Internal("health without lsn");
  }

  Status SetUp(Live& live, const std::string& name, const std::string& stats) {
    live.dir = work + "/" + name;
    fs::remove_all(live.dir);
    // Schema generation is part of set-up: a change that slows it shows.
    TYDER_ASSIGN_OR_RETURN(Schema schema,
                           workload::GenerateRandomSchema(params.schema));
    {
      TYDER_ASSIGN_OR_RETURN(storage::DurableCatalog db,
                             storage::DurableCatalog::Open(live.dir));
      TYDER_RETURN_IF_ERROR(db.Seed(Catalog(std::move(schema))));
    }
    live.daemon = std::make_unique<Daemon>();
    TYDER_RETURN_IF_ERROR(live.daemon->Start(tyderd, live.dir,
                                             work + "/tyderd.log", stats));
    Clock::time_point epoch = Clock::now();
    for (int i = 0; i < params.connections; ++i) {
      TYDER_ASSIGN_OR_RETURN(net::Client client,
                             net::Client::Connect(live.daemon->port()));
      live.conns.push_back(std::make_unique<Conn>(std::move(client), epoch));
    }
    TYDER_ASSIGN_OR_RETURN(live.seed_lsn, HealthLsn(*live.conns[0]));
    Conn& writer = *live.conns.back();
    for (const Inputs::View& b : in.baseline) {
      if (!writer.Mutate({b.projection ? kProject : kSelect, b.view, b.source, b.attrs}))
        return Status::Internal("baseline view " + b.view + " refused: " +
                                writer.stats.check_failures.back());
    }
    return Status::OK();
  }

  // --- the three timed loops ----------------------------------------------

  // The soak's costs grow with its history, so it runs a fixed number of
  // whole blocks (save, one shuffled pass over the pool, collapse) rather
  // than until a deadline: every run, and both sides of a comparison, reach
  // the same history, and recovery always replays one block. The shuffles
  // come from the schema seed, not --seed, so every run derives the same
  // sequence: with --seed-drawn orders, define_p50_ms spread 0.16 across
  // ten seeds against 0.05 over six runs of one seed. --seed drives the
  // reads.
  void ChurnSoak(Conn& c, int blocks, std::mt19937_64& rng) {
    Zipf zs(in.subtype.size(), params.zipf_s), zd(in.dispatch.size(), params.zipf_s);
    std::mt19937_64 order_rng(kSchemaSeed);
    int round = 0;
    for (int block = 0; block < blocks; ++block) {
      c.Mutate({kSave, "", "", {}});
      std::vector<size_t> order(in.pool.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), order_rng);
      for (size_t i : order) {
        // Sources are seed types, which stay live, so every request is valid
        // whatever the history.
        std::string view = "P" + std::to_string(round++);
        std::string source = in.pool[i].source;
        Op op{kProject, view, source, in.pool[i].attrs};
        if (!c.Mutate(std::move(op))) continue;
        // The source is a subtype of its projection (paper, Section 3).
        auto body = c.Call(kRead, "query", {"subtype", source, view});
        if (body && (body->empty() || (*body)[0] != "true"))
          c.stats.check_failures.push_back(source + " is not a subtype of " + view);
        for (int r = 1; r < params.reads_per_round; ++r) {
          if (r % 2 == 1) c.Subtype(in, zs(rng));
          else c.Dispatch(in, zd(rng));
        }
        c.Mutate({kDrop, view, "", {}});
      }
      c.Mutate({kCollapse, "", "", {}});
    }
  }

  void ServeReader(Conn& c, const std::atomic<bool>& stop, std::mt19937_64& rng) {
    Zipf zs(in.subtype.size(), params.zipf_s), zd(in.dispatch.size(), params.zipf_s);
    std::uniform_int_distribution<int> mix(0, 99);
    while (!stop.load(std::memory_order_relaxed)) {
      int m = mix(rng);
      if (m < 45) {
        c.Subtype(in, zs(rng));
      } else if (m < 90) {
        c.Dispatch(in, zd(rng));
      } else if (auto views = c.Views()) {
        std::set<std::string> names(views->begin(), views->end());
        for (const Inputs::View& b : in.baseline)
          if (!names.count(b.view))
            c.stats.check_failures.push_back("baseline view " + b.view + " missing");
      }
    }
  }

  void ServeWriter(Conn& c, Clock::time_point start, Clock::time_point end,
                   std::mt19937_64& rng) {
    Zipf zt(in.user_types.size(), params.zipf_s);
    auto period = std::chrono::microseconds(params.writer_period_us);
    // Open loop: tick i is due at start + i * period, define on even ticks
    // and drop on odd ones; latency counts from the due time.
    for (int64_t i = 0;; ++i) {
      Clock::time_point due = start + i * period;
      if (i % 2 == 0 && due >= end) break;
      std::this_thread::sleep_until(due);
      c.stats.writer_late.push_back(SecondsSince(due));
      std::string view = "W" + std::to_string(i / 2);
      if (i % 2 == 0) c.Mutate({kSelect, view, in.user_types[zt(rng)], {}}, due);
      else c.Mutate({kDrop, view, "", {}}, due);
    }
  }

  // A fixed number of cycles per writer, for the same reason as ChurnSoak:
  // each cycle leaves a tombstone type behind.
  void CommitWriter(Conn& c, int w, int cycles, std::mt19937_64& rng) {
    for (int k = 0; k < cycles; ++k) {
      std::string view = "C" + std::to_string(w) + "_" + std::to_string(k);
      std::string source = in.user_types[rng() % in.user_types.size()];
      if (!c.Mutate({kSelect, view, source, {}})) continue;
      if (auto views = c.Views()) {
        if (std::find(views->begin(), views->end(), view) == views->end())
          c.stats.check_failures.push_back("own write " + view + " not visible");
      }
      c.Mutate({kDrop, view, "", {}});
    }
  }

  // The state a restarted store must reproduce: hierarchy, views, lsn.
  std::optional<std::string> StoreImage(Conn& c) {
    auto schema = c.Call(kRead, "query", {"schema"});
    auto views = c.Call(kRead, "query", {"views"});
    auto lsn = HealthLsn(c);
    if (!schema || !views || !lsn.ok()) return std::nullopt;
    return Join(*schema, "\n") + "\n--views--\n" + Join(*views, "\n") +
           "\n--lsn " + std::to_string(*lsn);
  }

  // Every probe once, for the post-run checks.
  void AllProbes(Conn& c) {
    for (size_t i = 0; i < in.subtype.size(); ++i) c.Subtype(in, i);
    for (size_t i = 0; i < in.dispatch.size(); ++i) c.Dispatch(in, i);
  }

  // Timed restarts per repetition; recover_s is their median over the run.
  static constexpr int kRecoveries = 5;

  // One repetition: a fresh set-up, the timed phase, checks on the live
  // server, shutdown, and a timed recovery by a fresh tyderd.
  Status Rep(int rep, bool traced, WireResult& res) {
    uint64_t failed_before = 0;
    for (uint64_t f : res.stats.failed) failed_before += f;
    Live live;
    std::string stats_path = traced ? work + "/stats.jsonl" : "";
    if (traced) fs::remove(stats_path);
    Clock::time_point t_setup = Clock::now();
    TYDER_RETURN_IF_ERROR(SetUp(live, "db", stats_path));
    res.setup_s.push_back(SecondsSince(t_setup));
    res.db_dir = live.dir;

    for (auto& c : live.conns) {
      c->timed = true;
      c->traced = traced;
    }
    std::vector<std::thread> threads;
    std::atomic<bool> stop{false};
    Clock::time_point start = Clock::now();
    Clock::time_point end = start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(params.rep_s));
    for (int i = 0; i < params.connections; ++i) {
      Conn& c = *live.conns[i];
      threads.emplace_back([&, i] {
        std::mt19937_64 rng((uint64_t(seed) << 20) + uint64_t(rep) * 16 + uint64_t(i));
        switch (workload) {
          case Workload::kChurnSoak: ChurnSoak(c, params.blocks, rng); break;
          case Workload::kCommitStorm: CommitWriter(c, i, params.cycles, rng); break;
          case Workload::kServeRead:
            if (i + 1 < params.connections) ServeReader(c, stop, rng);
            else ServeWriter(c, start, end, rng);
            break;
        }
      });
    }
    if (workload == Workload::kServeRead) {
      threads.back().join();  // the writer's schedule bounds the phase
      stop.store(true);
      threads.pop_back();
    }
    for (std::thread& t : threads) t.join();
    res.timed_s += SecondsSince(start);
    for (auto& c : live.conns) {
      c->timed = false;
      c->traced = false;
    }

    // --- end-of-rep checks on the live server ---
    Conn& c0 = *live.conns[0];
    std::set<std::string> expect_views;
    for (const Inputs::View& b : in.baseline) expect_views.insert(b.view);
    auto views = c0.Views();
    if (views && std::set<std::string>(views->begin(), views->end()) != expect_views)
      c0.stats.check_failures.push_back("live views differ from the acked ledger");
    uint64_t acked = 0;
    for (auto& c : live.conns)
      for (const Op& op : c->stats.log) acked += op.kind != kSave;
    auto lsn = HealthLsn(c0);
    if (lsn.ok() && *lsn != live.seed_lsn + acked)
      c0.stats.check_failures.push_back(
          "lsn " + std::to_string(*lsn) + " != seed lsn + " +
          std::to_string(acked) + " acked mutations");
    AllProbes(c0);
    std::optional<std::string> image = StoreImage(c0);
    if (!image) c0.stats.check_failures.push_back("cannot read the store image");

    res.logs.clear();
    for (auto& c : live.conns) {
      res.logs.push_back(c->stats.log);
      res.stats.Merge(c->stats);
    }
    live.conns.clear();
    if (live.daemon->Stop() != 0)
      res.stats.check_failures.push_back("tyderd did not exit cleanly");
    res.rss_mib.push_back(static_cast<double>(live.daemon->peak_rss_kib()) / 1024.0);
    double kib = 0;
    for (const auto& e : fs::directory_iterator(live.dir))
      if (e.is_regular_file()) kib += static_cast<double>(e.file_size()) / 1024.0;
    res.db_kib.push_back(kib);
    if (traced) {
      std::ifstream in_stats(stats_path);
      std::string line, last;
      while (std::getline(in_stats, line))
        if (!line.empty()) last = line;
      if (!tyder_stat::Parser(last).Parse(&res.server_stats))
        res.stats.check_failures.push_back("unreadable tyderd stats series");
    }

    // --- recovery: a fresh tyderd replays the log tail. Opening writes
    // nothing, so each restart replays the same tail; the first one is
    // also checked.
    for (int r = 0; r < kRecoveries; ++r) {
      Daemon again;
      Clock::time_point t0 = Clock::now();
      TYDER_RETURN_IF_ERROR(again.Start(tyderd, live.dir, work + "/tyderd.log", ""));
      TYDER_ASSIGN_OR_RETURN(net::Client client, net::Client::Connect(again.port()));
      Conn c(std::move(client), Clock::now());
      bool pong = c.Call(kRead, "ping", {}).has_value();
      res.recover_s.push_back(SecondsSince(t0));
      if (!pong) c.stats.check_failures.push_back("restarted tyderd does not answer ping");
      if (r == 0) {
        std::optional<std::string> again_image = StoreImage(c);
        if (!image || !again_image || *image != *again_image)
          c.stats.check_failures.push_back("restarted store differs from the state at shutdown");
        AllProbes(c);
      }
      res.stats.Merge(c.stats);
      if (again.Stop() != 0)
        res.stats.check_failures.push_back("restarted tyderd did not exit cleanly");
    }
    uint64_t failed_after = 0;
    for (uint64_t f : res.stats.failed) failed_after += f;
    res.rep_failed.push_back(failed_after - failed_before);
    return Status::OK();
  }

  // round(--seconds / rep_s) repetitions (at most `max_reps`), after enough
  // extra set-ups that setup_s is a median of at least seven.
  Result<WireResult> Wire(bool traced, int max_reps) {
    WireResult res;
    int expected_reps =
        std::min(max_reps, std::max(1, static_cast<int>(std::lround(seconds / params.rep_s))));
    for (int i = expected_reps; i < 7; ++i) {
      Live spare;
      Clock::time_point t0 = Clock::now();
      TYDER_RETURN_IF_ERROR(SetUp(spare, "spare", ""));
      res.setup_s.push_back(SecondsSince(t0));
    }
    fs::remove_all(work + "/spare");
    for (int rep = 0; rep < expected_reps; ++rep) {
      TYDER_RETURN_IF_ERROR(Rep(rep, traced, res));
    }
    return res;
  }
};

// ---------------------------------------------------------------------------
// Output checks that need no saved output.

void CheckAnswers(const Inputs& in, const ConnStats& s, std::vector<std::string>* fails) {
  for (const auto& [i, ans] : s.subtype_answers) {
    const SubtypeProbe& p = in.subtype[i];
    if (ans != (p.expect ? "true" : "false"))
      fails->push_back("subtype " + p.a + " " + p.b + " answered " + ans);
  }
  for (const auto& [i, ans] : s.dispatch_answers) {
    const DispatchProbe& p = in.dispatch[i];
    if (ans != p.expect)
      fails->push_back("dispatch " + p.gf + "(" + Join(p.args, ",") + ") answered " +
                       ans + ", oracle says " + p.expect);
  }
}

// After churn-soak's last drop and collapse every seed type keeps its seed
// cumulative state (by attribute name) and dispatch.
void CheckSeedState(const Inputs& in, const Schema& now, std::vector<std::string>* fails) {
  const TypeGraph& g0 = in.seed.types();
  const TypeGraph& g1 = now.types();
  auto names = [](const TypeGraph& g, TypeId t) {
    std::set<std::string> out;
    for (AttrId a : oracle::RefCumulativeState(g, t)) out.insert(g.attribute(a).name.str());
    return out;
  };
  for (const std::string& type : in.user_types) {
    auto t0 = g0.FindType(type);
    auto t1 = g1.FindType(type);
    if (!t0.ok() || !t1.ok() || names(g0, *t0) != names(g1, *t1))
      fails->push_back("seed type " + type + " changed its cumulative state");
  }
  for (const DispatchProbe& p : in.dispatch) {
    std::vector<TypeId> args;
    for (const std::string& a : p.args) {
      Result<TypeId> t = g1.FindType(a);
      if (t.ok()) args.push_back(*t);
    }
    if (args.size() != p.args.size()) continue;  // reported above
    Result<MethodId> m = DispatchByName(now, p.gf, args);
    Result<GfId> gf = now.FindGenericFunction(p.gf);
    Result<MethodId> ref = gf.ok() ? oracle::RefDispatch(now, *gf, args)
                                   : Result<MethodId>(gf.status());
    if (!m.ok() || !ref.ok() || now.method(*m).label.str() != p.expect ||
        *m != *ref)
      fails->push_back("seed dispatch " + p.gf + "(" + Join(p.args, ",") + ") changed");
  }
}

// ---------------------------------------------------------------------------
// Traced mode: in-process probes of each layer.

// Counts and times the storage layer's file operations.
class CountingEnv : public storage::Env {
 public:
  std::mutex mu;
  uint64_t syncs = 0;
  uint64_t wal_bytes = 0;
  std::vector<double> sync_s;

 protected:
  class File : public storage::WritableFile {
   public:
    File(CountingEnv* env, std::unique_ptr<storage::WritableFile> inner, bool wal)
        : env_(env), inner_(std::move(inner)), wal_(wal) {}

   protected:
    Status DoAppend(std::string_view data) override {
      if (wal_) {
        std::lock_guard<std::mutex> lock(env_->mu);
        env_->wal_bytes += data.size();
      }
      return inner_->Append(data);
    }
    Status DoSync() override {
      Clock::time_point t0 = Clock::now();
      Status s = inner_->Sync();
      double dt = SecondsSince(t0);
      std::lock_guard<std::mutex> lock(env_->mu);
      ++env_->syncs;
      env_->sync_s.push_back(dt);
      return s;
    }
    Status DoTruncate(uint64_t size) override { return inner_->Truncate(size); }
    Result<uint64_t> DoSize() override { return inner_->Size(); }

   private:
    CountingEnv* env_;
    std::unique_ptr<storage::WritableFile> inner_;
    bool wal_;
  };

  Result<std::unique_ptr<storage::WritableFile>> Wrap(
      Result<std::unique_ptr<storage::WritableFile>> f, const std::string& path) {
    if (!f.ok()) return f.status();
    bool wal = path.size() >= 7 && path.compare(path.size() - 7, 7, "wal.log") == 0;
    return std::unique_ptr<storage::WritableFile>(new File(this, std::move(*f), wal));
  }
  Result<std::unique_ptr<storage::WritableFile>> DoOpenAppendable(
      const std::string& path) override {
    return Wrap(base().OpenAppendable(path), path);
  }
  Result<std::unique_ptr<storage::WritableFile>> DoOpenTruncated(
      const std::string& path) override {
    return Wrap(base().OpenTruncated(path), path);
  }
  Result<std::string> DoReadFile(const std::string& path) override {
    return base().ReadFile(path);
  }
  Status DoRenameFile(const std::string& from, const std::string& to) override {
    return base().RenameFile(from, to);
  }
  Status DoRemoveFile(const std::string& path) override {
    return base().RemoveFile(path);
  }
  Status DoTruncateFile(const std::string& path, uint64_t size) override {
    return base().TruncateFile(path, size);
  }
  Status DoSyncDir(const std::string& dir) override {
    Clock::time_point t0 = Clock::now();
    Status s = base().SyncDir(dir);
    double dt = SecondsSince(t0);
    std::lock_guard<std::mutex> lock(mu);
    ++syncs;
    sync_s.push_back(dt);
    return s;
  }
  Status DoCreateDirs(const std::string& dir) override { return base().CreateDirs(dir); }
  Result<std::vector<std::string>> DoListDir(const std::string& dir) override {
    return base().ListDir(dir);
  }

 private:
  static storage::Env& base() { return storage::Env::Posix(); }
};

using Metrics = std::vector<std::pair<std::string, std::pair<double, const char*>>>;

std::vector<double> SpanMs(const obs::Tracer& tracer, const std::string& name) {
  std::vector<double> out;
  std::vector<std::string> open;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.kind == obs::TraceEvent::Kind::kBegin) open.push_back(e.name);
    if (e.kind != obs::TraceEvent::Kind::kEnd) continue;
    if (!open.empty() && open.back() == name) out.push_back(double(e.dur_ns) / 1e6);
    if (!open.empty()) open.pop_back();
  }
  return out;
}

// Applies one logged op to a plain Catalog.
Status Apply(Catalog& cat, const Op& op) {
  switch (op.kind) {
    case kProject: return cat.DefineProjectionView(op.view, op.source, op.attrs).status();
    case kSelect: return cat.DefineSelectionView(op.view, op.source).status();
    case kDrop: return cat.DropView(op.view);
    case kCollapse: return cat.Collapse().status();
    default: return Status::OK();
  }
}

Status ApplyDurable(storage::DurableCatalog& db, const Op& op,
                    std::vector<double>* compact_ms) {
  switch (op.kind) {
    case kProject: return db.DefineProjectionView(op.view, op.source, op.attrs).status();
    case kSelect: return db.DefineSelectionView(op.view, op.source).status();
    case kDrop: return db.DropView(op.view);
    case kCollapse: return db.Collapse().status();
    case kSave: {
      Clock::time_point t0 = Clock::now();
      Status s = db.Compact();
      compact_ms->push_back(SecondsSince(t0) * 1e3);
      return s;
    }
    default: return Status::OK();
  }
}

// Median ns per call of `fn` over seven timed batches of `n` calls, after
// one untimed batch to warm caches.
double NsPerCall(size_t n, const std::function<void(size_t)>& fn) {
  for (size_t i = 0; i < n; ++i) fn(i);
  std::vector<double> per;
  for (int rep = 0; rep < 7; ++rep) {
    Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) fn(i);
    per.push_back(SecondsSince(t0) * 1e9 / double(n));
  }
  return Quantile(per, 0.5);
}

Status LayerProbes(const Run& run, const WireResult& wire, Metrics* m,
                   std::vector<std::string>* fails) {
  const Inputs& in = run.in;
  auto put = [&](const std::string& name, double v, const char* unit) {
    m->push_back({name, {v, unit}});
  };

  // --- core / catalog / objmodel / methods: a plain Catalog under a Tracer.
  Catalog cat(in.seed);
  obs::Tracer tracer;
  std::vector<double> drop_ms, collapse_ms;
  {
    obs::ScopedTracer installed(&tracer);
    size_t longest = 0;
    for (const auto& log : wire.logs) longest = std::max(longest, log.size());
    for (size_t i = 0; i < longest; ++i) {
      for (const auto& log : wire.logs) {
        if (i >= log.size()) continue;
        Clock::time_point t0 = Clock::now();
        Status s = Apply(cat, log[i]);
        double ms = SecondsSince(t0) * 1e3;
        if (!s.ok()) return Status::Internal("replay: " + s.ToString());
        if (log[i].kind == kDrop) drop_ms.push_back(ms);
        if (log[i].kind == kCollapse) collapse_ms.push_back(ms);
      }
    }
  }
  std::vector<double> derive = SpanMs(tracer, "DeriveProjection");
  put("core.derive_ms", Quantile(derive, 0.5), "ms");
  put("core.is_applicable_ms", Quantile(SpanMs(tracer, "IsApplicable"), 0.5), "ms");
  put("core.factor_state_ms", Quantile(SpanMs(tracer, "FactorState"), 0.5), "ms");
  put("core.augment_ms", Quantile(SpanMs(tracer, "Augment"), 0.5), "ms");
  put("core.factor_methods_ms", Quantile(SpanMs(tracer, "FactorMethods"), 0.5), "ms");
  put("core.verify_ms", Quantile(SpanMs(tracer, "Verify"), 0.5), "ms");

  const TypeGraph& g = cat.schema().types();
  size_t live = 0;
  for (TypeId t = 0; t < g.NumTypes(); ++t) live += !g.type(t).detached();
  put("objmodel.types", double(g.NumTypes()), "count");
  put("objmodel.live_type_share", double(live) / double(g.NumTypes()), "ratio");

  std::vector<std::pair<TypeId, TypeId>> sub;
  for (const SubtypeProbe& p : in.subtype) sub.push_back({*g.FindType(p.a), *g.FindType(p.b)});
  size_t hits = 0;
  put("objmodel.is_subtype_ns", NsPerCall(sub.size(), [&](size_t i) {
        hits += g.IsSubtype(sub[i].first, sub[i].second);
      }), "ns");
  std::vector<std::pair<GfId, std::vector<TypeId>>> calls;
  for (const DispatchProbe& p : in.dispatch) {
    std::vector<TypeId> args;
    for (const std::string& a : p.args) args.push_back(*g.FindType(a));
    calls.push_back({*cat.schema().FindGenericFunction(p.gf), std::move(args)});
  }
  put("methods.dispatch_ns", NsPerCall(calls.size(), [&](size_t i) {
        hits += Dispatch(cat.schema(), calls[i].first, calls[i].second).ok();
      }), "ns");
  if (hits == 0) fails->push_back("probe loop answered nothing");

  std::vector<double> copy_ms;
  for (int i = 0; i < 5; ++i) {
    Clock::time_point t0 = Clock::now();
    Catalog copy = cat;
    copy_ms.push_back(SecondsSince(t0) * 1e3);
    if (copy.schema().types().NumTypes() != g.NumTypes()) fails->push_back("catalog copy differs");
  }
  put("core.txn_copy_ms", Quantile(copy_ms, 0.5), "ms");
  put("catalog.drop_ms", Quantile(drop_ms, 0.5), "ms");
  std::string replayed = storage::SerializeCatalog(cat);
  size_t writers = 0;
  for (const auto& log : wire.logs) writers += !log.empty();
  {
    // A final collapse at the end state, so every workload reports one.
    Clock::time_point t0 = Clock::now();
    Result<CollapseReport> r = cat.Collapse();
    collapse_ms.push_back(SecondsSince(t0) * 1e3);
    if (!r.ok()) fails->push_back("final collapse: " + r.status().ToString());
  }
  put("catalog.collapse_ms", Quantile(collapse_ms, 0.5), "ms");

  // --- storage: the same mutations through a counting Env, one thread per
  // connection so group commit batches as it does under tyderd.
  std::string dir = run.work + "/replay";
  fs::remove_all(dir);
  CountingEnv env;
  std::vector<double> compact_ms;
  uint64_t mutations = 0;
  {
    TYDER_ASSIGN_OR_RETURN(storage::DurableCatalog db,
                           storage::DurableCatalog::Open(dir, &env));
    TYDER_RETURN_IF_ERROR(db.Seed(Catalog(in.seed)));
    {
      std::lock_guard<std::mutex> lock(env.mu);
      env.syncs = 0;
      env.wal_bytes = 0;
      env.sync_s.clear();
    }
    obs::MetricsRegistry::Global().Reset();
    std::vector<std::thread> threads;
    std::vector<Status> results(wire.logs.size());
    std::vector<std::vector<double>> compacts(wire.logs.size());
    for (size_t t = 0; t < wire.logs.size(); ++t) {
      threads.emplace_back([&, t] {
        for (const Op& op : wire.logs[t]) {
          Status s = ApplyDurable(db, op, &compacts[t]);
          if (!s.ok()) {
            results[t] = s;
            return;
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (size_t t = 0; t < wire.logs.size(); ++t) {
      if (!results[t].ok()) return Status::Internal("durable replay: " + results[t].ToString());
      compact_ms.insert(compact_ms.end(), compacts[t].begin(), compacts[t].end());
      for (const Op& op : wire.logs[t]) mutations += op.kind != kSave;
    }
    size_t pins = 0;
    put("core.epoch_pin_ns", NsPerCall(100'000, [&](size_t) {
          EpochCatalog::Pin pin = db.PinSnapshot();
          pins += pin.get() != nullptr;
        }), "ns");
    if (pins == 0) fails->push_back("no epoch published");
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  double batches = double(reg.CounterValue("storage.group_commit.batches"));
  double records = double(reg.CounterValue("storage.group_commit.records"));
  double wait_us = 0;
  for (const auto& [name, snap] : reg.HistogramSnapshot())
    if (name == "storage.group_commit.stall_ns") wait_us = double(snap.p50) / 1e3;
  double muts = double(std::max<uint64_t>(mutations, 1));
  {
    std::lock_guard<std::mutex> lock(env.mu);
    put("storage.fsyncs_per_mutation", double(env.syncs) / muts, "ratio");
    put("storage.fsync_us", Quantile(env.sync_s, 0.5) * 1e6, "us");
    put("storage.wal_bytes_per_mutation", double(env.wal_bytes) / muts, "B");
  }
  put("storage.group_commit_batch", batches > 0 ? records / batches : 0, "count");
  put("storage.group_commit_wait_us", wait_us, "us");

  // Recovery of the replayed store, then one more compaction at its end.
  {
    TYDER_ASSIGN_OR_RETURN(storage::DurableCatalog db, storage::DurableCatalog::Open(dir));
    const storage::RecoveryInfo& rec = db.recovery();
    put("storage.replayed_records", double(rec.replayed_records), "count");
    put("storage.replay_ms_per_record",
        rec.replayed_records > 0 ? double(rec.recovery_ns) / 1e6 / double(rec.replayed_records) : 0,
        "ms");
    // With one writer the order is the wire order, so the recovered store
    // must serialize byte-identically to the plain in-memory replay.
    if (writers == 1 && storage::SerializeCatalog(db.catalog()) != replayed)
      fails->push_back("recovered store differs from the in-memory replay");
    Clock::time_point t0 = Clock::now();
    TYDER_RETURN_IF_ERROR(db.Compact());
    compact_ms.push_back(SecondsSince(t0) * 1e3);
  }
  double snap_kib = 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() == ".tysnap") snap_kib += double(e.file_size()) / 1024.0;
  put("storage.snapshot_kib", snap_kib, "KiB");
  put("storage.compact_ms", Quantile(compact_ms, 0.5), "ms");
  fs::remove_all(dir);
  return Status::OK();
}

// ---------------------------------------------------------------------------

struct Summary {
  double define_p50, define_p90, drop_p50, drop_p90, read_p50, read_p90;
  double mutations_per_s, reads_per_s;
};

Summary Summarize(const WireResult& r, Kind define) {
  const ConnStats& s = r.stats;
  std::vector<double> reads = s.latency[kRead];
  reads.insert(reads.end(), s.latency[kViews].begin(), s.latency[kViews].end());
  return {Quantile(s.latency[define], 0.5) * 1e3, Quantile(s.latency[define], 0.9) * 1e3,
          Quantile(s.latency[kDrop], 0.5) * 1e3,   Quantile(s.latency[kDrop], 0.9) * 1e3,
          Quantile(reads, 0.5) * 1e6,              Quantile(reads, 0.9) * 1e6,
          double(s.mutations) / r.timed_s,         double(s.reads) / r.timed_s};
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> a;
  for (int i = 1; i + 1 < argc; i += 2) a[argv[i]] = argv[i + 1];
  for (const char* k : {"--workload", "--seed", "--seconds", "--trace", "--tyderd", "--work"}) {
    if (!a.count(k)) {
      std::fprintf(stderr, "tyder_perfbench: missing %s\n", k);
      return 2;
    }
  }
  Workload w;
  if (a["--workload"] == "churn-soak") w = Workload::kChurnSoak;
  else if (a["--workload"] == "serve-read") w = Workload::kServeRead;
  else if (a["--workload"] == "commit-storm") w = Workload::kCommitStorm;
  else {
    std::fprintf(stderr, "tyder_perfbench: unknown workload %s\n", a["--workload"].c_str());
    return 2;
  }
  uint32_t seed = static_cast<uint32_t>(std::stoul(a["--seed"]));
  bool trace = a["--trace"] == "1";
  Params params = ParamsFor(w);
  Result<Inputs> inputs = MakeInputs(params, seed);
  if (!inputs.ok()) {
    std::fprintf(stderr, "tyder_perfbench: inputs: %s\n", inputs.status().ToString().c_str());
    return 1;
  }
  fs::create_directories(a["--work"]);
  Run run{w, params, *inputs, seed, std::stod(a["--seconds"]), a["--tyderd"], a["--work"]};
  Kind define = w == Workload::kChurnSoak ? kProject : kSelect;

  std::vector<std::string> fails;
  Metrics metrics;
  ConnStats counted;
  // Traced mode runs one traced repetition between two untraced ones; the
  // untraced pair, pooled, is the baseline of the tracing overhead, so the
  // first repetition's cold start does not count as overhead.
  std::optional<WireResult> plain;
  auto untraced = [&]() -> Status {
    TYDER_ASSIGN_OR_RETURN(WireResult r, run.Wire(false, 1));
    counted.Merge(r.stats);
    if (!plain) {
      plain = std::move(r);
    } else {
      plain->stats.Merge(r.stats);
      plain->timed_s += r.timed_s;
      plain->rep_failed.insert(plain->rep_failed.end(), r.rep_failed.begin(),
                               r.rep_failed.end());
    }
    return Status::OK();
  };
  Status before = trace ? untraced() : Status::OK();
  Result<WireResult> wire = before.ok() ? run.Wire(trace, trace ? 1 : 1'000'000)
                                        : Result<WireResult>(before);
  Status after = wire.ok() && trace ? untraced() : Status::OK();
  if (!wire.ok() || !after.ok()) {
    Status failed = wire.ok() ? after : wire.status();
    std::fprintf(stderr, "tyder_perfbench: %s\n", failed.ToString().c_str());
    return 1;
  }
  Summary sum = Summarize(*wire, define);
  counted.Merge(wire->stats);
  if (!trace) {
    metrics = {{"setup_s", {Quantile(wire->setup_s, 0.5), "s"}},
               {"mutations_per_s", {sum.mutations_per_s, "1/s"}},
               {"define_p50_ms", {sum.define_p50, "ms"}},
               {"define_p90_ms", {sum.define_p90, "ms"}},
               {"drop_p50_ms", {sum.drop_p50, "ms"}},
               {"drop_p90_ms", {sum.drop_p90, "ms"}},
               {"reads_per_s", {sum.reads_per_s, "1/s"}},
               {"read_p50_us", {sum.read_p50, "us"}},
               {"read_p90_us", {sum.read_p90, "us"}},
               {"recover_s", {Quantile(wire->recover_s, 0.5), "s"}},
               {"db_kib", {Quantile(wire->db_kib, 0.5), "KiB"}},
               {"rss_mib", {Quantile(wire->rss_mib, 0.5), "MiB"}}};
  } else {
    Summary base = Summarize(*plain, define);
    const auto& hist = wire->server_stats.histograms;
    auto h = [&](const char* name, const char* q) {
      auto it = hist.find(name);
      if (it == hist.end()) return 0.0;
      auto v = it->second.find(q);
      return v == it->second.end() ? 0.0 : double(v->second);
    };
    std::vector<double> rtt;
    for (const Span& s : wire->stats.spans) rtt.push_back(double(s.end_ns - s.start_ns) / 1e3);
    double server_us = h("net.request_ns", "p50") / 1e3;
    metrics.push_back({"net.server_request_us", {server_us, "us"}});
    metrics.push_back({"net.wire_overhead_us", {Quantile(rtt, 0.5) - server_us, "us"}});
    metrics.push_back({"net.queue_depth_p95", {h("net.queue_depth", "p95"), "count"}});
    const auto& ctr = wire->server_stats.counters;
    auto c = [&](const char* name) {
      auto it = ctr.find(name);
      return it == ctr.end() ? 0.0 : double(it->second);
    };
    metrics.push_back({"core.epochs_retained",
                       {c("epoch.retires") - c("epoch.reclaims") + 1, "count"}});
    Status probed = LayerProbes(run, *wire, &metrics, &fails);
    if (!probed.ok()) {
      std::fprintf(stderr, "tyder_perfbench: %s\n", probed.ToString().c_str());
      return 1;
    }
    // Only churn-soak's define is a projection; elsewhere the share is 0.
    double derive = 0;
    for (const auto& [name, v] : metrics)
      if (name == "core.derive_ms" && define == kProject) derive = v.first;
    metrics.push_back({"core.define_share", {sum.define_p50 > 0 ? derive / sum.define_p50 : 0, "ratio"}});
    double late = wire->stats.writer_late.empty() ? 0 : Quantile(wire->stats.writer_late, 0.9) * 1e3;
    metrics.push_back({"loadgen.writer_late_p90_ms", {late, "ms"}});
    metrics.push_back({"trace.define_p50_overhead_ms", {sum.define_p50 - base.define_p50, "ms"}});
    metrics.push_back({"trace.read_p50_overhead_us", {sum.read_p50 - base.read_p50, "us"}});
    metrics.push_back({"trace.mutations_per_s_overhead",
                       {base.mutations_per_s - sum.mutations_per_s, "1/s"}});
    // Client spans, written out at the end as the choosing-metrics method asks.
    std::ofstream spans(run.work + "/spans.jsonl");
    for (const Span& s : wire->stats.spans)
      spans << "{\"op\":\"" << kKindNames[s.kind] << "\",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << "}\n";
  }

  CheckAnswers(run.in, counted, &fails);
  // Every repetition does the same operations, so it must fail the same
  // number of them: a refusal that comes and goes is not the known fault.
  std::vector<uint64_t> rep_failed = wire->rep_failed;
  if (plain)
    rep_failed.insert(rep_failed.end(), plain->rep_failed.begin(), plain->rep_failed.end());
  if (std::adjacent_find(rep_failed.begin(), rep_failed.end(),
                         std::not_equal_to<>()) != rep_failed.end())
    fails.push_back("repetitions failed different numbers of operations");
  fails.insert(fails.end(), counted.check_failures.begin(), counted.check_failures.end());
  if (w == Workload::kChurnSoak) {
    Result<storage::DurableCatalog> db = storage::DurableCatalog::Open(wire->db_dir);
    if (!db.ok()) fails.push_back("cannot reopen the store: " + db.status().ToString());
    else CheckSeedState(run.in, db->catalog().schema(), &fails);
  }

  uint64_t attempted = 0, failed = 0;
  for (int k = 0; k < kNumKinds; ++k) {
    attempted += counted.attempted[k];
    failed += counted.failed[k];
    std::printf("ops %-9s attempted %llu failed %llu\n", kKindNames[k],
                (unsigned long long)counted.attempted[k],
                (unsigned long long)counted.failed[k]);
  }
  if (!wire->stats.writer_late.empty())
    std::printf("open-loop writer late p50 %.3f ms p90 %.3f ms max %.3f ms\n",
                Quantile(wire->stats.writer_late, 0.5) * 1e3,
                Quantile(wire->stats.writer_late, 0.9) * 1e3,
                Quantile(wire->stats.writer_late, 1.0) * 1e3);
  for (size_t i = 0; i < fails.size() && i < 20; ++i)
    std::printf("CHECK FAILED: %s\n", fails[i].c_str());
  bool correct = fails.empty();
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " + Num(metrics[i].second.first) +
           ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tyder::perfbench

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  // The load generator and every tyderd it starts share one CPU (threads
  // and children inherit the mask): on a shared VM host, wakeups across
  // vCPUs made loopback round trips swing 3x from run to run, while
  // same-CPU hand-offs repeat. The last CPU of the allowed set is used.
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof one, &one);
      break;
    }
  }
  return tyder::perfbench::Main(argc, argv);
}
