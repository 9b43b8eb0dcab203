// perfbench_tool: the benchmark's in-process half.
//
//   perfbench_tool worldgen --out DIR --corpus-seed N
//       The webscale world (MakeWebScaleWorldConfig's 30 types) and a
//       corpus drawn with the given seed: kb.tsv, lexicon.tsv, corpus.tsv.
//   perfbench_tool digest --snapshot FILE
//       Canonical digest of a snapshot read back through the serving
//       library's reader.
//   perfbench_tool publish --store DIR --image FILE
//       Publishes a snapshot file as the next generation of a store.
//   perfbench_tool load ...         (tool_load.cc)
//   perfbench_tool trace-mine ...   (tool_trace_mine.cc)
//   perfbench_tool trace-serve ...  (tool_trace_serve.cc)
#include <iostream>
#include <string>

#include "bench_lib.h"
#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "kb/kb_io.h"
#include "obs/json_writer.h"
#include "serving/generation_store.h"
#include "text/lexicon_io.h"
#include "tool.h"

namespace perfbench {

std::string Flag(const Flags& flags, const std::string& name,
                 const std::string& fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

long long IntFlag(const Flags& flags, const std::string& name,
                  long long fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : std::stoll(it->second);
}

namespace {

int Fail(const std::string& what, const surveyor::Status& status) {
  std::cerr << what << ": " << status.ToString() << "\n";
  return 1;
}

int RunWorldgen(const Flags& flags) {
  const std::string out = Flag(flags, "out");
  if (out.empty() || flags.count("corpus-seed") == 0) {
    std::cerr << "worldgen: need --out and --corpus-seed\n";
    return 2;
  }
  // The world's shape stays fixed so every seed measures the same amount
  // of work; the seed draws the corpus (who says what about which entity).
  auto world = surveyor::World::Generate(surveyor::MakeWebScaleWorldConfig());
  if (!world.ok()) return Fail("worldgen", world.status());
  surveyor::GeneratorOptions options;
  options.seed = static_cast<uint64_t>(IntFlag(flags, "corpus-seed", 0));
  options.author_population = 8000;
  const std::vector<surveyor::RawDocument> corpus =
      surveyor::CorpusGenerator(&*world, options).Generate();
  surveyor::Status status =
      surveyor::SaveKnowledgeBaseToFile(world->kb(), out + "/kb.tsv");
  if (status.ok()) {
    status = surveyor::SaveLexiconToFile(world->lexicon(),
                                         out + "/lexicon.tsv");
  }
  if (status.ok()) {
    status = surveyor::SaveCorpusToFile(corpus, out + "/corpus.tsv");
  }
  if (!status.ok()) return Fail("worldgen", status);
  std::cout << "{\"entities\":" << world->kb().num_entities()
            << ",\"documents\":" << corpus.size() << "}" << std::endl;
  return 0;
}

int RunDigest(const Flags& flags) {
  SnapshotDigest digest;
  std::string error;
  if (!DigestSnapshotFile(Flag(flags, "snapshot"), &digest, &error)) {
    std::cerr << "digest: " << error << "\n";
    return 1;
  }
  std::cout << "{\"digest\":\"" << Hex64(digest.digest)
            << "\",\"rows\":" << digest.rows << "}" << std::endl;
  return 0;
}

int RunPublish(const Flags& flags) {
  surveyor::serving::GenerationStore store(Flag(flags, "store"));
  const surveyor::Status opened = store.Open();
  if (!opened.ok()) return Fail("publish", opened);
  const Clock::time_point start = Clock::now();
  const surveyor::StatusOr<uint64_t> id =
      store.PublishFile(Flag(flags, "image"));
  if (!id.ok()) return Fail("publish", id.status());
  std::cout << "{\"generation\":" << *id
            << ",\"publish_ms\":" << NsSince(start) * 1e-6 << "}"
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::cerr << "usage: perfbench_tool "
                 "<worldgen|digest|publish|load|trace-mine|trace-serve> "
                 "[--flag value]...\n";
    return 2;
  }
  const std::string command = argv[1];
  Flags flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string name = argv[i];
    if (name.rfind("--", 0) != 0) {
      std::cerr << "expected --flag, got '" << name << "'\n";
      return 2;
    }
    flags[name.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 0) {
    std::cerr << "flag '" << argv[argc - 1] << "' needs a value\n";
    return 2;
  }
  if (command == "worldgen") return RunWorldgen(flags);
  if (command == "digest") return RunDigest(flags);
  if (command == "publish") return RunPublish(flags);
  if (command == "load") return RunLoad(flags);
  if (command == "trace-mine") return RunTraceMine(flags);
  if (command == "trace-serve") return RunTraceServe(flags);
  std::cerr << "unknown command '" << command << "'\n";
  return 2;
}
