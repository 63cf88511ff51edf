// The three workloads of the engine benchmark, and the self-test of its
// answer checks. See perfbench/README.md for what each measures.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string workdir;
};

/// Operation accounting and metrics of one run. Op() may be called from
/// several threads.
class Report {
 public:
  /// Counts one operation of `type`; a failed one is logged (the first few
  /// per type) to standard error with `why`.
  void Op(const std::string& type, bool ok, const std::string& why = "");
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Lines for the human reader, printed before the result.
  void Note(const std::string& line);

  struct Tally {
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };
  std::map<std::string, Tally> ops() const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>& metrics() const {
    return metrics_;
  }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  mutable std::mutex mu_;
  std::map<std::string, Tally> ops_;  // guarded by mu_
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> notes_;
};

/// The WAL sync policy a workload's durable engines use, for the run record.
std::string WalSync(const std::string& workload);

/// Runs one workload into `report`. Returns false on a usage error.
bool RunWorkload(const Options& opt, Report* report);

/// Feeds corrupted answers (a dropped row, a wrong id, a subgraph missing
/// its terminals) to the checks of every query class and confirms each is
/// caught. Returns the process exit code.
int SelfTest(const Options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
