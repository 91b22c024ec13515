// tyderc — the tyder command-line driver. Loads a TDL schema (with its view
// definitions) and inspects or transforms it:
//
//   tyderc <schema.tdl>                      validate + summary
//   tyderc <schema.tdl> --print              type hierarchy
//   tyderc <schema.tdl> --methods            all method signatures/bodies
//   tyderc <schema.tdl> --dot                Graphviz of the hierarchy
//   tyderc <schema.tdl> --lint               multi-method consistency report
//   tyderc <schema.tdl> --project T a,b,c V  derive Π_{a,b,c}(T) as view V
//   tyderc <schema.tdl> --no-verify          skip the behavior-preservation
//                                            verifier in later --project ops
//                                            (failures still roll the schema
//                                            back — derivation is atomic)
//   tyderc <schema.tdl> --batch <file>       derive every projection listed
//                                            in <file> (one per line:
//                                            "<Type> <a,b,c> <ViewName>"; '#'
//                                            comments and blank lines are
//                                            skipped); analysis runs on the
//                                            --jobs worker pool, commits are
//                                            serial and per-item atomic; any
//                                            failed item makes the exit
//                                            status non-zero, with one
//                                            diagnostic per failed item on
//                                            stderr (later ops still run).
//                                            With --db, --jobs N instead
//                                            runs N concurrent committers
//                                            whose WAL records share
//                                            group-commit fsync batches
//                                            (the per-batch fsync count is
//                                            printed, and lands in
//                                            --metrics as
//                                            storage.group_commit.syncs)
//   tyderc <schema.tdl> --drop <View>        drop a view (revert/detach)
//   tyderc <schema.tdl> --collapse           collapse empty surrogates
//   tyderc <schema.tdl> --serialize          dump the (post-ops) schema
//   tyderc <schema.tdl> --export             re-emit the schema as TDL
//   tyderc <schema.tdl> --stats              hierarchy metrics
//
// Durable mode (src/storage/durable_catalog.h):
//
//   tyderc --db <dir> [ops]                  open/recover the database in
//                                            <dir>; mutating ops (--project,
//                                            --batch, --drop, --collapse)
//                                            are WAL-logged and crash-safe
//   tyderc <schema.tdl> --db <dir>           seed a fresh database from the
//                                            TDL file (initial snapshot)
//   tyderc --db <dir> --compact              write a snapshot, truncate the
//                                            WAL
//   tyderc --db <dir> --health               durability health report: state
//                                            (healthy / DEGRADED read-only,
//                                            with the cause), last lsn,
//                                            recovery summary, I/O error
//                                            counters. Exits 3 when the
//                                            database is degraded.
//
// Exit codes: 0 success, 1 operation failure, 2 usage error, 3 the database
// is in read-only degraded mode (a failed fsync made durability unprovable;
// see docs/ROBUSTNESS.md "Degraded mode").
//
// Execution modifiers:
//
//   --jobs <N>           analysis threads for in-memory --batch, concurrent
//                        committers for durable --batch (default 1)
//   --list-faults        print every registered fault point name and exit
//                        (the crash-injection harness enumerates these)
//
// Observability modifiers (composable with everything above; see
// docs/OBSERVABILITY.md):
//
//   --trace              print the span/narration trace of the whole run
//   --trace-json=<file>  write the trace in Chrome trace_event format
//                        (load via chrome://tracing or ui.perfetto.dev)
//   --metrics            print process counters/histograms after the run
//   --stats-jsonl=<file> append periodic tyder-stats-v1 JSON lines to <file>
//                        for the duration of the run (`tyder-stat`
//                        summarizes the series)
//   --stats-period-ms=<n>  snapshot cadence for --stats-jsonl (default 1000)
//
// --metrics and --stats-* need the metrics layer compiled in; a tyderc built
// with -DTYDER_OBS=OFF rejects them with a clear error rather than silently
// printing nothing.
//
// Flags compose left to right; transforms apply before later inspections.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "catalog/export_tdl.h"
#include "catalog/serialize.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "core/collapse.h"
#include "core/derive_batch.h"
#include "core/projection.h"
#include "lang/analyzer.h"
#include "methods/consistency.h"
#include "mir/printer.h"
#include "objmodel/hierarchy_analysis.h"
#include "objmodel/schema_printer.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/snapshotter.h"
#include "storage/durable_catalog.h"

namespace tyder {
namespace {

int Fail(const Status& status) {
  std::cerr << "tyderc: " << status << "\n";
  return 1;
}

// Durable-mode failures check for degraded mode, which gets its own exit
// code (3) so scripts can tell "this operation failed" from "the database
// refuses all mutations until Reopen re-validates the on-disk state".
int FailDb(const std::optional<storage::DurableCatalog>& db,
           const Status& status) {
  std::cerr << "tyderc: " << status << "\n";
  if (db.has_value() && db->degraded()) {
    std::cerr << "tyderc: database is in read-only degraded mode; run "
                 "`tyderc --db <dir> --health` for details\n";
    return 3;
  }
  return 1;
}

int Usage() {
  std::cerr << "usage: tyderc [<schema.tdl>] [--db <dir>] [--print] "
               "[--methods] [--dot] "
               "[--lint] [--no-verify] "
               "[--project <Type> <a,b,c> <ViewName>] [--batch <file>] "
               "[--drop <View>] [--collapse] [--compact] [--health] "
               "[--serialize] [--export] [--stats] [--jobs <N>] "
               "[--list-faults] "
               "[--trace] [--trace-json=<file>] [--metrics] "
               "[--stats-jsonl=<file>] [--stats-period-ms=<n>]\n";
  return 2;
}

// One line of a --batch file, before name resolution.
struct BatchLine {
  std::string source;
  std::vector<std::string> attrs;
  std::string view;
  int lineno = 0;
};

// Parses a --batch file: one projection per line, "<Type> <a,b,c> <ViewName>"
// (the same three operands --project takes). '#' starts a comment; blank
// lines are skipped.
Result<std::vector<BatchLine>> ParseBatchFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open batch file '" + path + "'");
  std::vector<BatchLine> lines;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    BatchLine item;
    item.lineno = lineno;
    std::string attrs;
    if (!(fields >> item.source)) continue;  // blank / comment-only line
    std::string garbage;
    if (!(fields >> attrs >> item.view) || (fields >> garbage)) {
      return Status::ParseError(path + ":" + std::to_string(lineno) +
                                ": expected '<Type> <a,b,c> <ViewName>'");
    }
    item.attrs = SplitAndTrim(attrs, ',');
    lines.push_back(std::move(item));
  }
  return lines;
}

void PrintApplicable(const Schema& schema, std::string_view view,
                     const std::vector<MethodId>& applicable) {
  std::cout << "derived " << view << "; applicable methods:";
  for (MethodId m : applicable) {
    std::cout << " " << schema.method(m).label.view();
  }
  std::cout << "\n";
}

// In-memory --batch: parallel analysis + serial atomic apply via DeriveBatch.
// Returns the number of failed items.
Result<size_t> RunBatchInMemory(Schema& schema,
                                const std::vector<BatchLine>& lines,
                                const std::string& path, int jobs,
                                const ProjectionOptions& projection_options) {
  std::vector<ProjectionSpec> specs;
  for (const BatchLine& item : lines) {
    Result<ProjectionSpec> spec =
        ResolveProjectionSpec(schema, item.source, item.attrs, item.view);
    if (!spec.ok()) {
      return spec.status().WithContext(path + ":" +
                                       std::to_string(item.lineno));
    }
    specs.push_back(std::move(*spec));
  }
  BatchDeriveOptions batch_options;
  batch_options.jobs = jobs;
  batch_options.apply = true;
  batch_options.verify = projection_options.verify;
  BatchDeriveReport report = DeriveBatch(schema, specs, batch_options);
  std::cout << "batch: " << report.items.size() << " projections, "
            << batch_options.jobs << " jobs\n";
  for (const BatchItemResult& item : report.items) {
    if (item.applied) {
      std::cout << "  ";
      PrintApplicable(schema, item.spec.view_name, item.applicability.applicable);
    } else {
      std::cout << "  FAILED " << item.spec.view_name << "\n";
      std::cerr << "tyderc: batch item '" << item.spec.view_name
                << "' failed: " << item.status << "\n";
    }
  }
  std::cout << "batch: " << report.applied << " applied, " << report.failed
            << " failed\n";
  return static_cast<size_t>(report.failed);
}

// Durable --batch: every item commits (and is WAL-logged) individually, but
// with --jobs N > 1 the items are pushed by N concurrent committers whose
// WAL records ride shared group-commit batches — a handful of fsyncs per
// batch window instead of one per item (docs/PERFORMANCE.md "Schema epochs
// and group commit"). Per-item atomicity, ordering of the printed report
// (input order), and failure diagnostics are identical to the serial path.
// Returns the number of failed items.
size_t RunBatchDurable(storage::DurableCatalog& db,
                       const std::vector<BatchLine>& lines,
                       const ProjectionOptions& projection_options, int jobs) {
#if TYDER_OBS_ENABLED
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  uint64_t syncs_before = registry.CounterValue("storage.group_commit.syncs");
#endif
  int workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(std::max(jobs, 1)), lines.size()));
  std::cout << "batch: " << lines.size() << " projections (durable, "
            << workers
            << (workers == 1 ? " committer)\n" : " concurrent committers)\n");
  std::vector<Status> results(lines.size(), Status::OK());
  std::atomic<size_t> cursor{0};
  auto committer = [&] {
    for (size_t i = cursor.fetch_add(1); i < lines.size();
         i = cursor.fetch_add(1)) {
      const BatchLine& item = lines[i];
      Result<const ViewDef*> view = db.DefineProjectionView(
          item.view, item.source, item.attrs, projection_options);
      if (!view.ok()) results[i] = view.status();
    }
  };
  if (workers == 1) {
    committer();
  } else {
    std::vector<std::thread> pool;
    for (int w = 0; w < workers; ++w) pool.emplace_back(committer);
    for (std::thread& t : pool) t.join();
  }
  // Quiesced: report in input order, resolving applied views by name (a
  // ViewDef pointer taken mid-batch could dangle across concurrent commits).
  size_t failed = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    const BatchLine& item = lines[i];
    if (results[i].ok()) {
      Result<const ViewDef*> view = db.catalog().FindView(item.view);
      std::cout << "  ";
      PrintApplicable(db.catalog().schema(), item.view,
                      view.ok() ? (*view)->derivation.applicability.applicable
                                : std::vector<MethodId>{});
    } else {
      ++failed;
      std::cout << "  FAILED " << item.view << "\n";
      std::cerr << "tyderc: batch item '" << item.view
                << "' failed: " << results[i] << "\n";
    }
  }
  std::cout << "batch: " << lines.size() - failed << " applied, " << failed
            << " failed\n";
#if TYDER_OBS_ENABLED
  std::cout << "batch: "
            << registry.CounterValue("storage.group_commit.syncs") -
                   syncs_before
            << " wal fsyncs for " << lines.size() - failed << " commits\n";
#endif
  return failed;
}

Result<Catalog> LoadTdlFile(const std::string& schema_path) {
  std::ifstream in(schema_path);
  if (!in) {
    return Status::NotFound("cannot open '" + schema_path + "'");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  obs::ScopedSpan span("LoadTdl");
  span.Attr("path", schema_path);
  return LoadTdl(buffer.str());
}

int RunOps(const std::string& schema_path, const std::string& db_dir,
           const std::vector<std::string>& ops, int jobs) {
  std::optional<Catalog> owned;          // file mode
  std::optional<storage::DurableCatalog> db;  // --db mode

  if (!db_dir.empty()) {
    Result<storage::DurableCatalog> opened =
        storage::DurableCatalog::Open(db_dir);
    if (!opened.ok()) return Fail(opened.status());
    db.emplace(std::move(opened).value());
    for (const std::string& warning : db->recovery().warnings) {
      std::cerr << "tyderc: recovery: " << warning << "\n";
    }
    if (!schema_path.empty()) {
      Result<Catalog> seed = LoadTdlFile(schema_path);
      if (!seed.ok()) return Fail(seed.status());
      Status seeded = db->Seed(std::move(*seed));
      if (!seeded.ok()) return Fail(seeded);
      std::cout << "seeded db '" << db_dir << "' from " << schema_path << "\n";
    }
  } else {
    if (schema_path.empty()) return Usage();
    Result<Catalog> loaded = LoadTdlFile(schema_path);
    if (!loaded.ok()) return Fail(loaded.status());
    owned.emplace(std::move(loaded).value());
  }
  // The catalog ops read. Every logged mutation replaces the durable tip, so
  // it is looked up afresh rather than held across ops.
  auto catalog = [&]() -> const Catalog& {
    return db.has_value() ? db->catalog() : *owned;
  };
  auto schema = [&]() -> const Schema& { return catalog().schema(); };

  if (ops.empty()) {
    std::cout << "OK: " << schema().types().NumTypes() << " types, "
              << schema().types().NumAttributes() << " attributes, "
              << schema().NumGenericFunctions() << " generic functions, "
              << schema().NumMethods() << " methods, "
              << catalog().views().size() << " views\n";
    if (db.has_value()) {
      const storage::RecoveryInfo& rec = db->recovery();
      std::cout << "db: last lsn " << db->last_lsn() << ", "
                << rec.replayed_records << " records replayed";
      if (rec.snapshot_loaded) {
        std::cout << " over snapshot lsn " << rec.snapshot_lsn;
      }
      std::cout << "\n";
    }
    return 0;
  }

  // Per-item failures (--batch) diagnose-and-continue; everything else is
  // fail-fast because later ops depend on the op that failed.
  int exit_code = 0;
  ProjectionOptions projection_options;
  for (size_t i = 0; i < ops.size(); ++i) {
    const std::string& flag = ops[i];
    obs::ScopedSpan span(flag);
    if (flag == "--no-verify") {
      // DeriveProjection stays transactional either way: a failed derivation
      // rolls the schema back whether or not the verifier runs.
      projection_options.verify = false;
    } else if (flag == "--print") {
      std::cout << PrintHierarchy(schema().types());
    } else if (flag == "--methods") {
      std::cout << PrintAllMethods(schema());
    } else if (flag == "--dot") {
      std::cout << ToDot(schema().types());
    } else if (flag == "--stats") {
      std::cout << HierarchyStatsToString(AnalyzeHierarchy(schema().types()));
      std::vector<TypeId> non_c3 = TypesWithoutC3Order(schema().types());
      if (!non_c3.empty()) {
        std::cout << "types without a C3 order:";
        for (TypeId t : non_c3) {
          std::cout << " " << schema().types().TypeName(t);
        }
        std::cout << "\n";
      }
    } else if (flag == "--lint") {
      std::vector<ConsistencyIssue> issues = CheckMethodConsistency(schema());
      if (issues.empty()) {
        std::cout << "lint: no multi-method consistency issues\n";
      } else {
        std::cout << ConsistencyReport(schema(), issues);
      }
    } else if (flag == "--project") {
      if (i + 3 >= ops.size()) return Usage();
      std::string source = ops[++i];
      std::vector<std::string> attrs = SplitAndTrim(ops[++i], ',');
      std::string view = ops[++i];
      if (db.has_value()) {
        Result<const ViewDef*> result =
            db->DefineProjectionView(view, source, attrs, projection_options);
        if (!result.ok()) return FailDb(db, result.status());
        PrintApplicable(schema(), view,
                        (*result)->derivation.applicability.applicable);
      } else {
        Result<DerivationResult> result = DeriveProjectionByName(
            owned->schema(), source, attrs, view, projection_options);
        if (!result.ok()) return Fail(result.status());
        PrintApplicable(schema(), view, result->applicability.applicable);
      }
    } else if (flag == "--batch") {
      if (i + 1 >= ops.size()) return Usage();
      std::string path = ops[++i];
      Result<std::vector<BatchLine>> lines = ParseBatchFile(path);
      if (!lines.ok()) return Fail(lines.status());
      size_t failed = 0;
      if (db.has_value()) {
        failed = RunBatchDurable(*db, *lines, projection_options, jobs);
      } else {
        Result<size_t> in_memory = RunBatchInMemory(
            owned->schema(), *lines, path, jobs, projection_options);
        if (!in_memory.ok()) return Fail(in_memory.status());
        failed = *in_memory;
      }
      if (failed > 0) {
        exit_code = db.has_value() && db->degraded() ? 3 : 1;
      }
    } else if (flag == "--drop") {
      if (i + 1 >= ops.size()) return Usage();
      std::string view = ops[++i];
      Status dropped =
          db.has_value() ? db->DropView(view) : owned->DropView(view);
      if (!dropped.ok()) return FailDb(db, dropped);
      std::cout << "dropped " << view << "\n";
    } else if (flag == "--collapse") {
      Result<CollapseReport> report =
          db.has_value() ? db->Collapse() : owned->Collapse();
      if (!report.ok()) return FailDb(db, report.status());
      std::cout << "collapsed " << report->collapsed.size()
                << " empty surrogates\n";
    } else if (flag == "--compact") {
      if (!db.has_value()) {
        std::cerr << "tyderc: --compact requires --db\n";
        return 2;
      }
      Status compacted = db->Compact();
      if (!compacted.ok()) return FailDb(db, compacted);
      std::cout << "compacted db at lsn " << db->last_lsn() << "\n";
    } else if (flag == "--health") {
      if (!db.has_value()) {
        std::cerr << "tyderc: --health requires --db\n";
        return 2;
      }
      const storage::RecoveryInfo& rec = db->recovery();
      std::cout << "health: db '" << db->dir() << "'\n"
                << "  state: "
                << (db->degraded() ? "DEGRADED (read-only)" : "healthy")
                << "\n";
      if (db->degraded()) {
        std::cout << "  cause: " << db->degraded_status().message() << "\n";
      }
      std::cout << "  last lsn: " << db->last_lsn() << "\n"
                << "  recovery: " << rec.replayed_records
                << " records replayed";
      if (rec.snapshot_loaded) {
        std::cout << " over snapshot lsn " << rec.snapshot_lsn;
      }
      std::cout << ", " << rec.warnings.size() << " warnings\n";
#if TYDER_OBS_ENABLED
      const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      std::cout << "  io errors: "
                << registry.CounterValue("storage.io_errors") << "\n"
                << "  degraded entries: "
                << registry.CounterValue("storage.degraded_entries") << "\n";
#endif
      if (db->degraded()) exit_code = 3;
    } else if (flag == "--serialize") {
      std::cout << SerializeSchema(schema());
    } else if (flag == "--export") {
      Result<std::string> tdl = ExportTdl(catalog());
      if (!tdl.ok()) return Fail(tdl.status());
      std::cout << *tdl;
    } else {
      return Usage();
    }
  }
  return exit_code;
}

// Operand count of each op flag; -1 for "not an op".
int OpArity(const std::string& flag) {
  if (flag == "--project") return 3;
  if (flag == "--batch" || flag == "--drop") return 1;
  if (flag == "--print" || flag == "--methods" || flag == "--dot" ||
      flag == "--lint" || flag == "--no-verify" || flag == "--collapse" ||
      flag == "--compact" || flag == "--health" || flag == "--serialize" ||
      flag == "--export" || flag == "--stats") {
    return 0;
  }
  return -1;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  // Peel off the observability/execution modifiers; everything else keeps
  // its left-to-right op semantics.
  bool want_trace = false;
  int jobs = 1;
  std::string trace_json_path;
  std::string schema_path;
  std::string db_dir;
  std::vector<std::string> ops;
#if TYDER_OBS_ENABLED
  bool want_metrics = false;
  std::string stats_jsonl_path;
  int stats_period_ms = 1000;
#endif
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--trace") {
      want_trace = true;
#if TYDER_OBS_ENABLED
    } else if (arg == "--metrics") {
      want_metrics = true;
    } else if (arg.rfind("--stats-jsonl=", 0) == 0) {
      stats_jsonl_path = arg.substr(std::string("--stats-jsonl=").size());
      if (stats_jsonl_path.empty()) return Usage();
    } else if (arg.rfind("--stats-period-ms=", 0) == 0) {
      stats_period_ms =
          std::atoi(arg.substr(std::string("--stats-period-ms=").size()).c_str());
      if (stats_period_ms < 1) return Usage();
#else
    } else if (arg == "--metrics" || arg.rfind("--stats-jsonl=", 0) == 0 ||
               arg.rfind("--stats-period-ms=", 0) == 0) {
      std::cerr << "tyderc: " << arg.substr(0, arg.find('='))
                << " requires the metrics layer, but this tyderc was built "
                   "with -DTYDER_OBS=OFF\n";
      return 2;
#endif
    } else if (arg == "--list-faults") {
      for (const std::string& name : failpoint::AllFaultPointNames()) {
        std::cout << name << "\n";
      }
      return 0;
    } else if (arg == "--jobs") {
      if (i + 1 >= argc) return Usage();
      jobs = std::atoi(argv[++i]);
      if (jobs < 1) return Usage();
    } else if (arg == "--db") {
      if (i + 1 >= argc) return Usage();
      db_dir = argv[++i];
    } else if (arg.rfind("--trace-json=", 0) == 0) {
      trace_json_path = arg.substr(std::string("--trace-json=").size());
      if (trace_json_path.empty()) return Usage();
    } else if (int arity = OpArity(arg); arity >= 0) {
      ops.push_back(arg);
      for (int n = 0; n < arity; ++n) {
        if (i + 1 >= argc) return Usage();
        ops.push_back(argv[++i]);
      }
    } else if (schema_path.empty() && arg.rfind("--", 0) != 0) {
      schema_path = arg;
    } else {
      return Usage();
    }
  }
  if (schema_path.empty() && db_dir.empty()) return Usage();

  obs::Tracer tracer;
  std::optional<obs::ScopedTracer> install;
  if (want_trace || !trace_json_path.empty()) install.emplace(&tracer);

#if TYDER_OBS_ENABLED
  std::optional<obs::StatsSnapshotter> snapshotter;
  if (!stats_jsonl_path.empty()) {
    snapshotter.emplace(
        obs::SnapshotterOptions{stats_jsonl_path, stats_period_ms});
    if (!snapshotter->Start()) {
      std::cerr << "tyderc: cannot write '" << stats_jsonl_path << "'\n";
      return 1;
    }
  }
#endif

  int exit_code = RunOps(schema_path, db_dir, ops, jobs);

#if TYDER_OBS_ENABLED
  if (snapshotter.has_value()) snapshotter->Stop();
#endif

  if (want_trace) {
    std::cout << "=== trace ===\n" << obs::TraceToText(tracer.events());
  }
  if (!trace_json_path.empty()) {
    std::ofstream out(trace_json_path);
    if (!out) {
      std::cerr << "tyderc: cannot write '" << trace_json_path << "'\n";
      return 1;
    }
    out << obs::TraceToChromeJson(tracer.events()) << "\n";
  }
#if TYDER_OBS_ENABLED
  if (want_metrics) {
    std::cout << "=== metrics ===\n"
              << obs::MetricsToText(obs::MetricsRegistry::Global());
  }
#endif
  return exit_code;
}

}  // namespace
}  // namespace tyder

int main(int argc, char** argv) { return tyder::Run(argc, argv); }
