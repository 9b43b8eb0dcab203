// surveyor_cli — command-line front end for the Surveyor library.
//
//   surveyor_cli worldgen <scenario> <outdir> [authors]
//       Generates a synthetic world + Web corpus and writes kb.tsv,
//       lexicon.tsv and corpus.tsv to <outdir>.
//       Scenarios: tiny, paper, bigcity, webscale.
//
//   surveyor_cli mine <dir> [--min-statements N] [--threshold T]
//                     [--domain D] [--out FILE] [--provenance N]
//                     [--report FILE] [--admin-port N] [--faults SPEC]
//                     [--fault-seed N] [--profile FILE]
//       Runs the full pipeline over <dir>/corpus.tsv with <dir>/kb.tsv and
//       <dir>/lexicon.tsv; writes the mined opinions (default
//       <dir>/opinions.tsv). With --snapshot FILE, also freezes them into
//       a binary opinion snapshot `serve --snapshot` can answer queries
//       from. Without --domain the corpus is streamed from
//       disk with corrupt lines quarantined (counted, not fatal); with
//       --domain it is loaded and filtered in memory. With --provenance
//       N, also writes up to N supporting document references per pair to
//       <dir>/provenance.tsv. With --report FILE, writes the JSON run
//       report (metrics, tracing spans, EM diagnostics, degradation
//       accounting; see DESIGN.md §7 and §9) to FILE. With --admin-port N
//       (0 = off, the default), serves the live admin plane on
//       127.0.0.1:N for the duration of the run: /metrics, /metrics.json,
//       /healthz, /readyz, /statusz, /logz. With --faults SPEC (or the
//       SURVEYOR_FAULTS env var), arms fault injection for a chaos run,
//       e.g. --faults doc_read:0.01,em_fit:@3 (DESIGN.md §9). With
//       --profile FILE (or the SURVEYOR_PROFILE env var), samples the
//       run's CPU at 97 Hz, writes flamegraph.pl-ready folded stacks to
//       FILE, and prints the per-stage attribution table (DESIGN.md §12).
//
//   surveyor_cli serve <dir> [mine flags] [--admin-port N]
//   surveyor_cli serve --snapshot FILE [--admin-port N]
//                      [--trace-sample-rate R] [--slow-query-ms MS]
//   surveyor_cli serve --generations DIR [--retain N] [--admin-port N]
//                      [--trace-sample-rate R] [--slow-query-ms MS]
//       First form: mines like `mine`, writes an opinion snapshot
//       (--snapshot FILE, default <dir>/opinions.surv) and keeps the
//       process alive answering subjective queries over HTTP:
//       /v1/query?entity=E&property=P, /v1/query?type=T&property=P,
//       /v1/query?prefix=S and POST /v1/query/batch, next to the admin
//       endpoints. Second form: skips mining and serves an existing
//       snapshot directly. Third form: serves the newest committed
//       generation of a crash-safe generation store (see `mine
//       --publish`); POST /v1/admin/reload (optionally ?generation=N for a
//       rollback) or SIGHUP hot-swaps generations without dropping a
//       query, and /statusz grows a "generation" section (DESIGN.md
//       §14). Admin port defaults to 8080 for serve.
//       Every request gets a trace id; a fraction (--trace-sample-rate,
//       default 0.01) plus everything slower than --slow-query-ms
//       (default 250) keeps its span tree on /tracez, and /requestz shows
//       the recent access log (DESIGN.md §11). With --publish DIR, mine
//       commits the snapshot as the next generation of DIR's store
//       (keeping --retain N generations, default 4).
//
//   surveyor_cli query <dir> <type> <property> [limit]
//       Answers a subjective query ("city big") from mined opinions.
//
//   surveyor_cli profile <dir> <entity>
//       Prints every mined property of an entity.
//
//   surveyor_cli repl <dir>
//       Interactive subjective search: "<type> <property>" queries,
//       "profile <entity>", "quit".
//
//   surveyor_cli score <dir>
//       Scores <dir>/opinions.tsv against the simulator's oracle
//       (<dir>/truth.tsv): coverage, precision and F1 per type and
//       overall.
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "corpus/world_io.h"
#include "kb/kb_io.h"
#include "obs/admin_server.h"
#include "obs/log_ring.h"
#include "obs/profiler.h"
#include "obs/resource_sampler.h"
#include "obs/stage.h"
#include "serving/generation_store.h"
#include "serving/opinion_index.h"
#include "serving/query_service.h"
#include "serving/reload_service.h"
#include "serving/snapshot.h"
#include "surveyor/opinion_store.h"
#include "surveyor/pipeline.h"
#include "text/lexicon_io.h"
#include "util/string_util.h"
#include "util/table.h"

namespace surveyor {
namespace {

int Usage() {
  std::cerr
      << "usage:\n"
      << "  surveyor_cli worldgen <tiny|paper|bigcity|webscale> <outdir> "
         "[authors]\n"
      << "  surveyor_cli mine <dir> [--min-statements N] [--threshold T]"
         " [--domain D] [--out FILE] [--provenance N] [--report FILE]"
         " [--snapshot FILE] [--publish DIR] [--retain N] [--admin-port N]"
         " [--faults SPEC] [--fault-seed N] [--profile FILE]\n"
      << "  surveyor_cli serve <dir> [mine flags] [--admin-port N]"
         " [serving knobs]\n"
      << "  surveyor_cli serve --snapshot FILE [--admin-port N]"
         " [--trace-sample-rate R] [--slow-query-ms MS] [serving knobs]\n"
      << "  surveyor_cli serve --generations DIR [--retain N]"
         " [--admin-port N] [--trace-sample-rate R] [--slow-query-ms MS]"
         " [serving knobs]\n"
      << "  (serving knobs: --max-connections N --queue-high-water N)\n"
      << "  surveyor_cli query <dir> <type> <property> [limit]\n"
      << "  surveyor_cli profile <dir> <entity>\n"
      << "  surveyor_cli repl <dir>\n"
      << "  surveyor_cli score <dir>\n";
  return 2;
}

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

/// Set by the SIGHUP handler; drained by the serving park loop. The
/// handler only flips the flag — everything else (manifest refresh,
/// snapshot load, the atomic swap) runs on the main thread.
volatile std::sig_atomic_t g_sighup_pending = 0;

void OnSigHup(int) { g_sighup_pending = 1; }

/// Parks a serving process forever, draining SIGHUP into `on_sighup`
/// (a generation reload). The sleep is short so a signal is acted on
/// promptly even though the handler itself does nothing.
[[noreturn]] void ParkServing(const std::function<void()>& on_sighup) {
  std::signal(SIGHUP, OnSigHup);
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (g_sighup_pending != 0) {
      g_sighup_pending = 0;
      on_sighup();
    }
  }
}

/// Commands that take only positional arguments reject anything that looks
/// like a flag instead of silently ignoring it.
bool HasUnknownFlag(const std::vector<std::string>& args) {
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag '" << arg << "'\n";
      return true;
    }
  }
  return false;
}

StatusOr<WorldConfig> ScenarioConfig(const std::string& name) {
  if (name == "tiny") return MakeTinyWorldConfig();
  if (name == "paper") return MakePaperWorldConfig();
  if (name == "bigcity") return MakeBigCityWorldConfig();
  if (name == "webscale") return MakeWebScaleWorldConfig();
  return Status::InvalidArgument("unknown scenario '" + name + "'");
}

int RunWorldgen(const std::vector<std::string>& args) {
  if (HasUnknownFlag(args)) return Usage();
  if (args.size() < 2) return Usage();
  auto config = ScenarioConfig(args[0]);
  if (!config.ok()) return Fail(config.status());
  const std::string outdir = args[1];

  auto world = World::Generate(*config);
  if (!world.ok()) return Fail(world.status());

  GeneratorOptions options;
  options.author_population = args.size() > 2 ? std::atof(args[2].c_str())
                                              : 2000.0;
  const std::vector<RawDocument> corpus =
      CorpusGenerator(&*world, options).Generate();

  Status status = SaveKnowledgeBaseToFile(world->kb(), outdir + "/kb.tsv");
  if (!status.ok()) return Fail(status);
  status = SaveLexiconToFile(world->lexicon(), outdir + "/lexicon.tsv");
  if (!status.ok()) return Fail(status);
  status = SaveCorpusToFile(corpus, outdir + "/corpus.tsv");
  if (!status.ok()) return Fail(status);
  // The simulator's oracle, for scoring mined opinions externally.
  status = SaveGroundTruthToFile(*world, outdir + "/truth.tsv");
  if (!status.ok()) return Fail(status);

  std::cout << "wrote " << outdir << "/{kb,lexicon,corpus,truth}.tsv: "
            << world->kb().num_entities() << " entities, " << corpus.size()
            << " documents\n";
  return 0;
}

struct LoadedWorkspace {
  KnowledgeBase kb;
  Lexicon lexicon;
};

StatusOr<LoadedWorkspace> LoadWorkspace(const std::string& dir) {
  LoadedWorkspace ws;
  SURVEYOR_ASSIGN_OR_RETURN(ws.kb, LoadKnowledgeBaseFromFile(dir + "/kb.tsv"));
  SURVEYOR_ASSIGN_OR_RETURN(ws.lexicon,
                            LoadLexiconFromFile(dir + "/lexicon.tsv"));
  return ws;
}

/// `serve --snapshot FILE` / `serve --generations DIR`: no mining — load
/// a frozen opinion snapshot (or the newest committed generation of a
/// GenerationStore) and answer /v1/query until stopped. The readiness gate
/// stays closed (503) from bind until the index finishes loading, so a
/// scraper that races the startup never reads from a half-built index.
/// In generations mode POST /v1/admin/reload (or SIGHUP) hot-swaps to the
/// newest generation — the serve side of the mine -> publish -> serve ->
/// re-mine -> reload loop; SIGHUP in snapshot mode re-loads the same
/// file.
int RunServeSnapshot(const std::vector<std::string>& args) {
  std::string snapshot_path;
  std::string generations_dir;
  size_t retain = 4;
  int admin_port = 8080;
  double trace_sample_rate = 0.01;
  double slow_query_ms = 250.0;
  obs::AdminServerOptions admin_options;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag != "--snapshot" && flag != "--generations" &&
        flag != "--retain" && flag != "--admin-port" &&
        flag != "--trace-sample-rate" && flag != "--slow-query-ms" &&
        flag != "--max-connections" && flag != "--queue-high-water") {
      std::cerr << "unknown flag '" << flag << "'\n";
      return Usage();
    }
    if (i + 1 >= args.size()) {
      std::cerr << "flag '" << flag << "' requires a value\n";
      return Usage();
    }
    const std::string& value = args[++i];
    if (flag == "--snapshot") {
      snapshot_path = value;
    } else if (flag == "--generations") {
      generations_dir = value;
    } else if (flag == "--retain") {
      retain = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (flag == "--trace-sample-rate") {
      trace_sample_rate = std::atof(value.c_str());
    } else if (flag == "--slow-query-ms") {
      slow_query_ms = std::atof(value.c_str());
    } else if (flag == "--max-connections") {
      admin_options.max_connections =
          static_cast<size_t>(std::atoll(value.c_str()));
    } else if (flag == "--queue-high-water") {
      admin_options.queue_high_water =
          static_cast<size_t>(std::atoll(value.c_str()));
    } else {
      admin_port = std::atoi(value.c_str());
    }
  }
  if (snapshot_path.empty() == generations_dir.empty()) {
    std::cerr << "serve needs exactly one of --snapshot or --generations\n";
    return Usage();
  }
  if (!(trace_sample_rate >= 0.0 && trace_sample_rate <= 1.0)) {
    return Fail(Status::InvalidArgument(
        "trace_sample_rate must be in [0, 1] (0 = head sampling off)"));
  }
  if (!(slow_query_ms >= 0.0)) {
    return Fail(Status::InvalidArgument(
        "slow_query_ms must be >= 0 (0 = tail capture off)"));
  }
  if (retain == 0) {
    return Fail(Status::InvalidArgument("retain must be >= 1"));
  }
  if (admin_options.max_connections < 1 ||
      admin_options.queue_high_water < 1) {
    return Fail(Status::InvalidArgument(
        "max_connections and queue_high_water must be >= 1"));
  }

  obs::LogRing::InstallGlobalTee();
  obs::MetricRegistry registry;
  obs::StageTracker stage_tracker;
  obs::ResourceSampler sampler(&registry);
  serving::OpinionIndexOptions index_options;
  index_options.metrics = &registry;
  serving::OpinionIndex index(index_options);
  serving::QueryService query_service(&index, &stage_tracker, &registry);
  admin_options.port = admin_port;
  admin_options.trace_sample_rate = trace_sample_rate;
  admin_options.slow_query_ms = slow_query_ms;
  admin_options.profiler_metrics = &registry;
  obs::AdminServer admin(&registry, &stage_tracker, &obs::LogRing::Global(),
                         admin_options);
  query_service.Register(&admin);

  std::unique_ptr<serving::GenerationStore> store;
  std::unique_ptr<serving::ReloadService> reload;
  if (!generations_dir.empty()) {
    serving::GenerationStoreOptions store_options;
    store_options.retain = retain;
    store_options.metrics = &registry;
    store = std::make_unique<serving::GenerationStore>(generations_dir,
                                                       store_options);
    const Status opened = store->Open();
    if (!opened.ok()) return Fail(opened);
    reload = std::make_unique<serving::ReloadService>(store.get(), &index,
                                                      &registry);
    reload->Register(&admin);
  }
  const Status started = admin.Start();
  if (!started.ok()) return Fail(started);

  if (store != nullptr) {
    if (store->latest() != 0) {
      const Status loaded = reload->ReloadLatest();
      if (!loaded.ok()) return Fail(loaded);
      stage_tracker.SetStage(obs::PipelineStage::kServing);
      std::cout << "serving generation " << index.generation_id() << " ("
                << index.generation()->snapshot().num_opinions()
                << " opinions) from " << generations_dir
                << " on http://127.0.0.1:" << admin.port()
                << " — POST /v1/admin/reload or SIGHUP to hot-swap "
                   "(Ctrl-C to stop)\n";
    } else {
      // An empty store is a valid start: /v1/query answers 503 until the
      // first publish lands and /v1/admin/reload (or SIGHUP) swaps it in.
      std::cout << "no generations in " << generations_dir
                << " yet; waiting on http://127.0.0.1:" << admin.port()
                << " — publish one and POST /v1/admin/reload (Ctrl-C to "
                   "stop)\n";
    }
    ParkServing([&] {
      const Status reloaded = reload->ReloadLatest();
      if (!reloaded.ok()) {
        std::cerr << "SIGHUP reload failed: " << reloaded.ToString() << "\n";
      } else if (index.loaded()) {
        stage_tracker.SetStage(obs::PipelineStage::kServing);
      }
    });
  }

  const Status loaded = index.Load(snapshot_path);
  if (!loaded.ok()) return Fail(loaded);
  stage_tracker.SetStage(obs::PipelineStage::kServing);
  std::cout << "serving " << index.generation()->snapshot().num_opinions()
            << " opinions from " << snapshot_path << " on http://127.0.0.1:"
            << admin.port()
            << " — /v1/query?entity=E&property=P (Ctrl-C to stop)\n";
  ParkServing([&] {
    const Status reloaded = index.Load(snapshot_path);
    if (!reloaded.ok()) {
      std::cerr << "SIGHUP reload failed: " << reloaded.ToString() << "\n";
    }
  });
}

/// Shared implementation of `mine` and `serve` (serve = mine, write a
/// snapshot, then stay alive answering /v1/query with the admin plane up).
int RunMine(const std::vector<std::string>& args, bool serve) {
  if (args.empty()) return Usage();
  if (serve && args[0].rfind("--", 0) == 0) return RunServeSnapshot(args);
  const std::string dir = args[0];
  SurveyorConfig config;
  std::string domain;
  std::string out = dir + "/opinions.tsv";
  std::string report_path;
  std::string snapshot_path;
  std::string publish_dir;
  size_t publish_retain = 4;
  std::string profile_path;
  // serve without an admin plane would just be a parked process, so it
  // defaults to the conventional local admin port; mine defaults to off.
  int admin_port = serve ? 8080 : 0;
  bool admin_enabled = serve;
  // Event-loop shape of the admin/serving tier; defaults from the struct.
  obs::AdminServerOptions serving_shape;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& flag = args[i];
    const bool known = flag == "--min-statements" || flag == "--threshold" ||
                       flag == "--domain" || flag == "--out" ||
                       flag == "--provenance" || flag == "--report" ||
                       flag == "--snapshot" || flag == "--publish" ||
                       flag == "--retain" || flag == "--admin-port" ||
                       flag == "--faults" || flag == "--fault-seed" ||
                       flag == "--trace-sample-rate" ||
                       flag == "--slow-query-ms" || flag == "--profile" ||
                       flag == "--max-connections" ||
                       flag == "--queue-high-water";
    if (!known) {
      std::cerr << "unknown flag '" << flag << "'\n";
      return Usage();
    }
    if (i + 1 >= args.size()) {
      std::cerr << "flag '" << flag << "' requires a value\n";
      return Usage();
    }
    const std::string& value = args[++i];
    if (flag == "--min-statements") {
      config.min_statements = std::atoll(value.c_str());
    } else if (flag == "--threshold") {
      config.decision_threshold = std::atof(value.c_str());
    } else if (flag == "--domain") {
      domain = value;
    } else if (flag == "--out") {
      out = value;
    } else if (flag == "--provenance") {
      config.max_provenance_samples = std::atoi(value.c_str());
    } else if (flag == "--snapshot") {
      snapshot_path = value;
    } else if (flag == "--publish") {
      publish_dir = value;
    } else if (flag == "--retain") {
      publish_retain = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (flag == "--admin-port") {
      admin_port = std::atoi(value.c_str());
      // 0 disables for mine; serve binds an ephemeral port instead of
      // running headless.
      admin_enabled = serve || admin_port != 0;
    } else if (flag == "--faults") {
      config.fault_spec = value;
    } else if (flag == "--fault-seed") {
      config.fault_seed = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (flag == "--trace-sample-rate") {
      config.trace_sample_rate = std::atof(value.c_str());
    } else if (flag == "--slow-query-ms") {
      config.slow_query_ms = std::atof(value.c_str());
    } else if (flag == "--max-connections") {
      serving_shape.max_connections =
          static_cast<size_t>(std::atoll(value.c_str()));
    } else if (flag == "--queue-high-water") {
      serving_shape.queue_high_water =
          static_cast<size_t>(std::atoll(value.c_str()));
    } else if (flag == "--profile") {
      profile_path = value;
    } else {
      report_path = value;
    }
  }
  // The env var mirrors the flag so wrappers (CI, scripts) can profile
  // without touching the command line — same pattern as SURVEYOR_FAULTS.
  if (profile_path.empty()) {
    if (const char* env = std::getenv("SURVEYOR_PROFILE")) profile_path = env;
  }
  // Fail fast on a bad configuration: the pipeline validates again before
  // running, but the admin plane (whose tracer options come from the same
  // config) starts first.
  const Status config_status = config.Validate();
  if (!config_status.ok()) return Fail(config_status);
  if (serving_shape.max_connections < 1 ||
      serving_shape.queue_high_water < 1) {
    return Fail(Status::InvalidArgument(
        "max_connections and queue_high_water must be >= 1"));
  }

  // The admin plane: a live registry + readiness machine the pipeline
  // writes into, an OS resource sampler, the process log ring, and the
  // HTTP server that serves all three while the run is in flight.
  obs::MetricRegistry live_registry;
  obs::StageTracker stage_tracker;
  std::unique_ptr<obs::ResourceSampler> sampler;
  std::unique_ptr<obs::AdminServer> admin;
  // The query path: serve mounts /v1/query on the admin server before it
  // starts (handlers cannot be added to a live server); the index stays
  // empty — and the endpoint 503s via the readiness gate — until mining
  // finishes and the freshly written snapshot is loaded below.
  serving::OpinionIndexOptions index_options;
  index_options.metrics = &live_registry;
  serving::OpinionIndex index(index_options);
  serving::QueryService query_service(&index, &stage_tracker, &live_registry);
  if (admin_enabled) {
    obs::LogRing::InstallGlobalTee();
    config.live_metrics = &live_registry;
    config.stage_tracker = &stage_tracker;
    sampler = std::make_unique<obs::ResourceSampler>(&live_registry);
    obs::AdminServerOptions admin_options = serving_shape;
    admin_options.port = admin_port;
    admin_options.trace_sample_rate = config.trace_sample_rate;
    admin_options.slow_query_ms = config.slow_query_ms;
    admin_options.profiler_metrics = &live_registry;
    admin = std::make_unique<obs::AdminServer>(
        &live_registry, &stage_tracker, &obs::LogRing::Global(),
        admin_options);
    if (serve) query_service.Register(admin.get());
    const Status started = admin->Start();
    if (!started.ok()) return Fail(started);
    std::cout << "admin plane on http://127.0.0.1:" << admin->port()
              << " (/metrics /healthz /readyz /statusz /logz /tracez"
              << " /requestz)\n";
  }

  auto workspace = LoadWorkspace(dir);
  if (!workspace.ok()) return Fail(workspace.status());

  // Arm the sampling profiler around the mining run only (not workspace
  // loading), so the folded stacks answer "where do mining cycles go".
  // Stage attribution needs the tracker wired into the pipeline even when
  // no admin plane is up.
  obs::Profiler& profiler = obs::Profiler::Global();
  if (!profile_path.empty()) {
    config.stage_tracker = &stage_tracker;
    obs::ProfilerOptions profiler_options;
    profiler_options.stage_tracker = &stage_tracker;
    profiler_options.metrics = &live_registry;
    const Status profiling = profiler.Start(profiler_options);
    if (!profiling.ok()) return Fail(profiling);
  }

  SurveyorPipeline pipeline(&workspace->kb, &workspace->lexicon, config);
  StatusOr<PipelineResult> result = [&]() -> StatusOr<PipelineResult> {
    if (domain.empty()) {
      // Stream the corpus from disk — the snapshot posture: corrupt lines
      // are quarantined and counted instead of failing the run, and the
      // file never needs to fit in memory.
      FileDocumentSourceOptions source_options;
      source_options.quarantine_corrupt = true;
      FileDocumentSource source(dir + "/corpus.tsv", source_options);
      SURVEYOR_RETURN_IF_ERROR(source.status());
      return pipeline.RunStreaming(source);
    }
    // Domain filtering needs the documents in hand; load and filter.
    SURVEYOR_ASSIGN_OR_RETURN(const std::vector<RawDocument> corpus,
                              LoadCorpusFromFile(dir + "/corpus.tsv"));
    return pipeline.Run(FilterByDomain(corpus, domain));
  }();

  if (!profile_path.empty()) {
    StatusOr<obs::ProfileResult> profile = profiler.Stop();
    if (!profile.ok()) return Fail(profile.status());
    std::ofstream folded(profile_path);
    if (!folded) {
      return Fail(Status::NotFound("cannot write " + profile_path));
    }
    folded << profile->ToFolded();
    std::cout << StrFormat(
        "wrote CPU profile to %s (%lld samples at %.0f Hz, %lld dropped)\n",
        profile_path.c_str(), static_cast<long long>(profile->samples),
        profile->frequency_hz, static_cast<long long>(profile->dropped));
    for (const obs::StageAttribution& row : profile->stages) {
      std::cout << StrFormat("  %5.1f%%  stage=%s tag=%s (%lld samples)\n",
                             100.0 * row.fraction, row.stage.c_str(),
                             row.tag.c_str(),
                             static_cast<long long>(row.samples));
    }
  }

  if (!result.ok()) return Fail(result.status());

  OpinionStore store(&workspace->kb);
  store.AddAll(*result);
  Status status = store.SaveToFile(out);
  if (!status.ok()) return Fail(status);

  // Freeze the mined opinions into the binary snapshot the serving layer
  // reads. serve always writes one (it is what /v1/query answers from);
  // mine writes one only when asked via --snapshot. With --publish DIR
  // the same image is committed as the next generation of a
  // GenerationStore — the crash-safe hand-off a running `serve
  // --generations` picks up via /v1/admin/reload or SIGHUP.
  if (serve && snapshot_path.empty()) snapshot_path = dir + "/opinions.surv";
  if (!snapshot_path.empty() || !publish_dir.empty()) {
    serving::SnapshotWriter writer;
    writer.set_label("mine " + dir);
    status = writer.AddResult(*result, workspace->kb);
    if (!status.ok()) return Fail(status);
    if (!snapshot_path.empty()) {
      status = writer.WriteToFile(snapshot_path);
      if (!status.ok()) return Fail(status);
      std::cout << "wrote opinion snapshot to " << snapshot_path << "\n";
    }
    if (!publish_dir.empty()) {
      if (publish_retain == 0) {
        return Fail(Status::InvalidArgument("retain must be >= 1"));
      }
      serving::GenerationStoreOptions store_options;
      store_options.retain = publish_retain;
      if (admin_enabled) store_options.metrics = &live_registry;
      serving::GenerationStore store(publish_dir, store_options);
      status = store.Open();
      if (!status.ok()) return Fail(status);
      StatusOr<uint64_t> published = store.PublishImage(writer.Serialize());
      if (!published.ok()) return Fail(published.status());
      std::cout << "published generation " << *published << " to "
                << publish_dir << "\n";
    }
  }

  if (config.max_provenance_samples > 0) {
    std::ofstream prov(dir + "/provenance.tsv");
    if (!prov) return Fail(Status::NotFound("cannot write provenance.tsv"));
    prov << "# entity <tab> property <tab> doc_id:sentence:polarity ...\n";
    for (const auto& [key, refs] : result->provenance) {
      prov << workspace->kb.entity(key.first).canonical_name << "\t"
           << key.second;
      for (const StatementRef& ref : refs) {
        prov << "\t" << ref.doc_id << ":" << ref.sentence_index << ":"
             << (ref.positive ? "+" : "-");
      }
      prov << "\n";
    }
  }

  if (!report_path.empty()) {
    std::ofstream report_file(report_path);
    if (!report_file) {
      return Fail(Status::NotFound("cannot write " + report_path));
    }
    result->report.label = "mine " + dir;
    report_file << result->report.ToJson() << "\n";
    std::cout << "wrote run report to " << report_path << "\n";
  }

  const PipelineStats& stats = result->stats;
  std::cout << StrFormat(
      "mined %lld opinions from %lld documents (%lld statements, "
      "%lld/%lld property-type pairs kept) -> %s\n",
      static_cast<long long>(stats.num_opinions),
      static_cast<long long>(stats.num_documents),
      static_cast<long long>(stats.num_statements),
      static_cast<long long>(stats.num_kept_property_type_pairs),
      static_cast<long long>(stats.num_property_type_pairs), out.c_str());

  const obs::DegradationReport& degradation = result->report.degradation;
  if (degradation.degraded) {
    std::cout << StrFormat(
        "run degraded: %lld docs quarantined, %lld pairs on the "
        "majority-vote fallback, %lld retries, %lld faults injected\n",
        static_cast<long long>(degradation.docs_quarantined),
        static_cast<long long>(degradation.pairs_degraded),
        static_cast<long long>(degradation.retries),
        static_cast<long long>(degradation.faults_injected));
    for (const obs::DegradedPairInfo& pair : degradation.degraded_pairs) {
      std::cout << "  degraded pair: " << pair.type_name << " "
                << pair.property << " (" << pair.reason << ")\n";
    }
    for (const std::string& note : degradation.notes) {
      std::cout << "  " << note << "\n";
    }
  }

  if (serve) {
    // Park the process answering queries: load the snapshot just written
    // into the query index, then flip readiness to "serving" — only now
    // does /v1/query stop returning 503. The final counters and stage
    // history stay scrapeable, and the mined store size is exported as a
    // gauge.
    status = index.Load(snapshot_path);
    if (!status.ok()) return Fail(status);
    stage_tracker.SetStage(obs::PipelineStage::kServing);
    obs::Gauge* store_size =
        live_registry.GetGauge("surveyor_opinion_store_size");
    live_registry.SetHelp("surveyor_opinion_store_size",
                          "Mined opinions held by the serving process.");
    store_size->Set(static_cast<double>(store.size()));
    std::cout << "serving; http://127.0.0.1:" << admin->port()
              << "/v1/query?entity=E&property=P and /metrics (Ctrl-C to "
                 "stop)\n";
    ParkServing([&] {
      const Status reloaded = index.Load(snapshot_path);
      if (!reloaded.ok()) {
        std::cerr << "SIGHUP reload failed: " << reloaded.ToString() << "\n";
      }
    });
  }
  return 0;
}

StatusOr<OpinionStore> LoadOpinions(const LoadedWorkspace& workspace,
                                    const std::string& dir) {
  OpinionStore store(&workspace.kb);
  SURVEYOR_RETURN_IF_ERROR(store.LoadFromFile(dir + "/opinions.tsv"));
  return store;
}

int RunQuery(const std::vector<std::string>& args) {
  if (HasUnknownFlag(args)) return Usage();
  if (args.size() < 3) return Usage();
  auto workspace = LoadWorkspace(args[0]);
  if (!workspace.ok()) return Fail(workspace.status());
  auto store = LoadOpinions(*workspace, args[0]);
  if (!store.ok()) return Fail(store.status());
  auto type = workspace->kb.TypeByName(args[1]);
  if (!type.ok()) return Fail(type.status());
  const size_t limit = args.size() > 3
                           ? static_cast<size_t>(std::atoll(args[3].c_str()))
                           : 15;

  TextTable table({args[2] + " " + Lexicon::Pluralize(args[1]),
                   "probability"});
  for (const PairOpinion& opinion : store->Query(*type, args[2], limit)) {
    table.AddRow({workspace->kb.entity(opinion.entity).canonical_name,
                  TextTable::Num(opinion.probability, 3)});
  }
  table.Print(std::cout);
  return 0;
}

int RunProfile(const std::vector<std::string>& args) {
  if (HasUnknownFlag(args)) return Usage();
  if (args.size() < 2) return Usage();
  auto workspace = LoadWorkspace(args[0]);
  if (!workspace.ok()) return Fail(workspace.status());
  auto store = LoadOpinions(*workspace, args[0]);
  if (!store.ok()) return Fail(store.status());
  const std::vector<EntityId> ids = workspace->kb.EntitiesByName(args[1]);
  if (ids.empty()) {
    return Fail(Status::NotFound("unknown entity '" + args[1] + "'"));
  }

  for (EntityId id : ids) {
    const Entity& entity = workspace->kb.entity(id);
    std::cout << entity.canonical_name << " ("
              << workspace->kb.TypeName(entity.most_notable_type) << ")\n";
    TextTable table({"property", "polarity", "probability"});
    for (const PairOpinion& opinion : store->PropertiesOf(id)) {
      table.AddRow({opinion.property,
                    std::string(PolarityName(opinion.polarity)),
                    TextTable::Num(opinion.probability, 3)});
    }
    table.Print(std::cout);
  }
  return 0;
}

int RunRepl(const std::vector<std::string>& args) {
  if (HasUnknownFlag(args)) return Usage();
  if (args.empty()) return Usage();
  auto workspace = LoadWorkspace(args[0]);
  if (!workspace.ok()) return Fail(workspace.status());
  auto store = LoadOpinions(*workspace, args[0]);
  if (!store.ok()) return Fail(store.status());

  std::cout << "subjective search over " << store->size()
            << " mined opinions. Try \"city big\" or \"profile <entity>\"; "
               "\"quit\" exits.\n";
  std::string line;
  while (std::cout << "> " && std::getline(std::cin, line)) {
    const std::vector<std::string> words = SplitWhitespace(line);
    if (words.empty()) continue;
    if (words[0] == "quit" || words[0] == "exit") break;
    if (words[0] == "profile" && words.size() >= 2) {
      std::string name = words[1];
      for (size_t w = 2; w < words.size(); ++w) name += " " + words[w];
      const std::vector<EntityId> ids = workspace->kb.EntitiesByName(name);
      if (ids.empty()) {
        std::cout << "unknown entity '" << name << "'\n";
        continue;
      }
      for (const PairOpinion& opinion : store->PropertiesOf(ids[0])) {
        std::cout << "  " << PolarityName(opinion.polarity) << " "
                  << opinion.property << " ("
                  << TextTable::Num(opinion.probability, 3) << ")\n";
      }
      continue;
    }
    if (words.size() >= 2) {
      auto type = workspace->kb.TypeByName(words[0]);
      if (!type.ok()) {
        std::cout << "unknown type '" << words[0] << "'\n";
        continue;
      }
      const auto results = store->Query(*type, words[1], 10);
      if (results.empty()) {
        std::cout << "no " << words[1] << " " << Lexicon::Pluralize(words[0])
                  << " found\n";
      }
      for (const PairOpinion& opinion : results) {
        std::cout << "  "
                  << workspace->kb.entity(opinion.entity).canonical_name
                  << " (" << TextTable::Num(opinion.probability, 3) << ")\n";
      }
      continue;
    }
    std::cout << "usage: <type> <property> | profile <entity> | quit\n";
  }
  return 0;
}

int RunScore(const std::vector<std::string>& args) {
  if (HasUnknownFlag(args)) return Usage();
  if (args.empty()) return Usage();
  auto workspace = LoadWorkspace(args[0]);
  if (!workspace.ok()) return Fail(workspace.status());
  auto store = LoadOpinions(*workspace, args[0]);
  if (!store.ok()) return Fail(store.status());
  auto truth =
      LoadGroundTruthFromFile(args[0] + "/truth.tsv", workspace->kb);
  if (!truth.ok()) return Fail(truth.status());

  // Per-type tallies plus an overall row.
  struct Tally {
    int64_t total = 0;
    int64_t solved = 0;
    int64_t correct = 0;
  };
  std::map<TypeId, Tally> per_type;
  Tally overall;
  for (const auto& [key, polarity] : *truth) {
    const TypeId type = workspace->kb.entity(key.first).most_notable_type;
    Tally& tally = per_type[type];
    ++tally.total;
    ++overall.total;
    auto mined = store->Lookup(key.first, key.second);
    if (!mined.ok()) continue;
    ++tally.solved;
    ++overall.solved;
    if (mined->polarity == polarity) {
      ++tally.correct;
      ++overall.correct;
    }
  }

  TextTable table({"type", "cases", "coverage", "precision", "F1"});
  auto add_row = [&](const std::string& label, const Tally& tally) {
    const double coverage =
        tally.total > 0 ? static_cast<double>(tally.solved) / tally.total : 0;
    const double precision =
        tally.solved > 0 ? static_cast<double>(tally.correct) / tally.solved
                         : 0;
    const double f1 = (coverage + precision) > 0
                          ? 2 * coverage * precision / (coverage + precision)
                          : 0;
    table.AddRow({label, StrFormat("%lld", (long long)tally.total),
                  TextTable::Num(coverage), TextTable::Num(precision),
                  TextTable::Num(f1)});
  };
  for (const auto& [type, tally] : per_type) {
    add_row(workspace->kb.TypeName(type), tally);
  }
  add_row("OVERALL", overall);
  table.Print(std::cout);
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "worldgen") return RunWorldgen(args);
  if (command == "mine") return RunMine(args, /*serve=*/false);
  if (command == "serve") return RunMine(args, /*serve=*/true);
  if (command == "query") return RunQuery(args);
  if (command == "profile") return RunProfile(args);
  if (command == "repl") return RunRepl(args);
  if (command == "score") return RunScore(args);
  return Usage();
}

}  // namespace
}  // namespace surveyor

int main(int argc, char** argv) { return surveyor::Main(argc, argv); }
