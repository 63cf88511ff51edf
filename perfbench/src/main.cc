// perfbench: the Graphitti engine benchmark.
//
//   perfbench --workload <query_alone|query_with_writer|load_restart>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir> [--commit <id>]
//   perfbench --self-test --workdir <dir>
//
// Prints a run record and the operation counts as '#' lines, then, as the
// last line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when any operation failed. perfbench/run.py builds and runs it.
#include <sys/statfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794c7630:
      return "overlayfs";
    case 0x6969:
      return "nfs";
    case 0x2FC12FC1:
      return "zfs";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(fs.f_type));
  return buf;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir> [--commit <id>]\n       perfbench --self-test "
               "--workdir <dir>\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string commit = "unknown";
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--workdir") {
      opt.workdir = value();
    } else if (arg == "--commit") {
      commit = value();
    } else if (arg == "--self-test") {
      self_test = true;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to report from a %s build; build Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  if (opt.workdir.empty()) return Usage("--workdir is required");
  std::error_code ec;
  std::filesystem::create_directories(opt.workdir, ec);
  if (self_test) return perfbench::SelfTest(opt);
  if (opt.seconds <= 0) return Usage("--seconds must be positive");

  std::string record = "{\"workload\": " + JsonString(opt.workload) +
                       ", \"seed\": " + std::to_string(opt.seed) +
                       ", \"seconds\": " + JsonNumber(opt.seconds) +
                       ", \"trace\": " + (opt.trace ? "1" : "0") +
                       ", \"commit\": " + JsonString(commit) +
                       ", \"engine_root\": " + JsonString(PERFBENCH_ENGINE_ROOT) +
                       ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
                       ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                       ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                       ", \"durable_fs\": " + JsonString(FilesystemType(opt.workdir)) +
                       ", \"wal_sync\": " + JsonString(perfbench::WalSync(opt.workload)) + "}";
  std::printf("# run_record %s\n", record.c_str());
  std::fflush(stdout);

  perfbench::Report report;
  if (!perfbench::RunWorkload(opt, &report)) return Usage("unknown workload");

  for (const std::string& line : report.notes()) std::printf("# %s\n", line.c_str());
  uint64_t attempted = 0, failed = 0;
  std::string ops = "{";
  for (const auto& [type, t] : report.ops()) {
    attempted += t.attempted;
    failed += t.failed;
    if (ops.size() > 1) ops += ", ";
    ops += JsonString(type) + ": {\"attempted\": " + std::to_string(t.attempted) +
           ", \"failed\": " + std::to_string(t.failed) + "}";
  }
  std::printf("# ops %s}\n", ops.c_str());
  std::string metrics = "{";
  for (const auto& [name, vu] : report.metrics()) {
    if (metrics.size() > 1) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + JsonNumber(vu.first) +
               ", \"unit\": " + JsonString(vu.second) + "}";
  }
  metrics += "}";
  bool correct = failed == 0 && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}
