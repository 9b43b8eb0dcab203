// Subcommands of perfbench_tool. Each takes its arguments as --flag value
// pairs and prints one JSON object on stdout; a nonzero exit means the
// step failed and the run must not report a result.
#ifndef PERFBENCH_TOOL_H_
#define PERFBENCH_TOOL_H_

#include <map>
#include <string>

namespace perfbench {

using Flags = std::map<std::string, std::string>;

/// Flag value, or `fallback` when absent.
std::string Flag(const Flags& flags, const std::string& name,
                 const std::string& fallback = "");
long long IntFlag(const Flags& flags, const std::string& name,
                  long long fallback);

/// Closed-loop load against a running `surveyor_cli serve`.
int RunLoad(const Flags& flags);
/// Single-thread replay of a mine through each mining layer, plus the
/// threaded runs behind source.wait_ns_per_doc and workers.speedup.
int RunTraceMine(const Flags& flags);
/// The serving stack in-process, layer by layer, on a workload's stream.
int RunTraceServe(const Flags& flags);

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_H_
