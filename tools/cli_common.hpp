// cli_common.hpp — the emsplit CLI's machine plumbing, shared by commands.
//
// Everything here used to live inline in emsplit_cli.cpp; the serve/query
// commands (the resident splitter service) need the same Options parsing and
// Machine assembly as the batch commands, so the plumbing moved into its own
// translation unit.  The contract is unchanged: global options describe a
// simulated machine (device backend, budget, journal, trace), and
// make_machine() assembles it with the destruction order the substrate
// requires (journal before device).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "em/checkpoint.hpp"
#include "em/context.hpp"
#include "em/pass_engine.hpp"
#include "util/record.hpp"
#include "util/workload.hpp"

namespace emsplit::cli {

struct Options {
  std::size_t block_bytes = 4096;
  std::size_t mem_bytes = 1 << 20;
  std::string backend = "mem";
  std::size_t workers = 0;
  std::size_t kill_worker = 0;
  std::uint64_t kill_round = 0;
  std::size_t mem_workers = 1;
  std::size_t batch_blocks = 1;
  std::string trace_path;
  bool checksums = false;
  std::string checkpoint_dir;
  std::uint64_t crash_after = 0;
};

/// The simulated machine one command runs on.  Destruction order matters:
/// the journal persists the device's checksum sidecar and returns its
/// extents to the device, so it must die first — members are declared
/// device, journal, context and destroyed in reverse.
/// The destructor flushes the `--trace` log (every pass has completed by
/// then, and the context is still alive during the destructor body).
struct Machine {
  std::unique_ptr<BlockDevice> dev;
  std::unique_ptr<CheckpointJournal> journal;
  std::unique_ptr<Context> ctx;
  std::unique_ptr<PassTraceLog> trace;
  std::string trace_path;

  Machine() = default;
  Machine(Machine&&) = default;
  Machine& operator=(Machine&&) = default;
  ~Machine();
};

Machine make_machine(const Options& opt);

[[noreturn]] void usage(const char* why = nullptr);

/// Parse the leading `--option=value` run of argv; returns the index of the
/// first non-option argument (the subcommand).  Exits via usage() on a bad
/// option.
int parse_global_options(int argc, char** argv, Options& opt);

std::uint64_t parse_u64(const char* s, const char* what);

std::vector<Record> read_file(const std::string& path);
void write_file(const std::string& path, const std::vector<Record>& v);

Workload parse_workload(const std::string& name);

void print_cost(const Context& ctx, std::size_t n);

}  // namespace emsplit::cli
