// Shared helpers for the figure-regeneration harnesses in bench/: the
// paper-style workload shorthand, panel printing, the SPECMATCH_TRIALS
// override that scales every harness down to a smoke run, and the wall-clock
// timer + JSON writer behind BENCH_core.json.
#pragma once

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/config.hpp"
#include "common/metrics.hpp"
#include "common/table.hpp"
#include "workload/generator.hpp"

namespace specmatch::bench {

/// Trials per figure point. Every bench binary routes its hardcoded count
/// through this, so SPECMATCH_TRIALS=1 turns any harness into a seconds-long
/// smoke run (the bench_smoke ctest) without changing the full-run defaults.
inline int env_trials(int fallback) {
  return env_count("SPECMATCH_TRIALS", 1, fallback);
}

/// Steady-clock stopwatch for the JSON perf records.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  void reset() { start_ = std::chrono::steady_clock::now(); }

  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// One row of BENCH_core.json: wall-clock for `bench` on an M x N market (or
/// an N-vertex graph with M = 0) under `algorithm` at `threads` lanes.
/// The last three fields are optional (the scale bench fills them) and are
/// omitted from the JSON at their defaults, so BENCH_core.json is unchanged.
struct BenchRecord {
  BenchRecord() = default;
  BenchRecord(std::string bench_name, int sellers, int buyers,
              std::string algorithm_name, int num_threads, double wall,
              int round_count)
      : bench(std::move(bench_name)),
        M(sellers),
        N(buyers),
        algorithm(std::move(algorithm_name)),
        threads(num_threads),
        wall_ms(wall),
        rounds(round_count) {}

  std::string bench;
  int M = 0;
  int N = 0;
  std::string algorithm;
  int threads = 1;
  double wall_ms = 0.0;
  int rounds = 0;
  double peak_rss_mb = 0.0;        ///< process high-water RSS; > 0 to emit
  std::int64_t steady_allocs = -1;  ///< steady-round heap allocs; >= 0 to emit
  std::string note;                 ///< free-form context; non-empty to emit
};

/// Writes the bench JSON (the schema consumed by the perf tracking scripts;
/// see tools/run_bench.sh and docs/OBSERVABILITY.md): an object with the
/// wall-clock "records" array plus, when a metrics snapshot is passed, a
/// "metrics" section of the algorithmic counters/gauges/histograms.
///
/// Fails loudly — clear stderr message naming the path and OS error, then a
/// CheckError (non-zero exit in every bench main) — on an unwritable or
/// invalid output path; a perf record silently lost to a typo'd path is
/// worse than a dead run.
inline void write_bench_json(
    const std::string& path, const std::vector<BenchRecord>& records,
    const metrics::Snapshot* metrics_snapshot = nullptr) {
  errno = 0;
  std::ofstream out(path);
  if (!out.good()) {
    const std::string reason =
        errno != 0 ? std::strerror(errno) : "stream open failed";
    std::cerr << "ERROR: cannot open bench JSON output '" << path
              << "' for writing: " << reason << "\n";
    SPECMATCH_CHECK_MSG(false, "cannot open bench JSON output '"
                                   << path << "': " << reason);
  }
  out << "{\n\"schema\": \"specmatch-bench-v2\",\n\"records\": [\n";
  for (std::size_t r = 0; r < records.size(); ++r) {
    const BenchRecord& rec = records[r];
    out << "  {\"bench\": \"" << rec.bench << "\", \"M\": " << rec.M
        << ", \"N\": " << rec.N << ", \"algorithm\": \"" << rec.algorithm
        << "\", \"threads\": " << rec.threads << ", \"wall_ms\": "
        << rec.wall_ms << ", \"rounds\": " << rec.rounds;
    if (rec.peak_rss_mb > 0.0) out << ", \"peak_rss_mb\": " << rec.peak_rss_mb;
    if (rec.steady_allocs >= 0)
      out << ", \"steady_allocs\": " << rec.steady_allocs;
    if (!rec.note.empty()) out << ", \"note\": \"" << rec.note << "\"";
    out << "}" << (r + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]";
  if (metrics_snapshot != nullptr) {
    out << ",\n\"metrics\": ";
    metrics::write_json(out, *metrics_snapshot);
  } else {
    out << "\n";
  }
  out << "}\n";
  out.flush();
  if (!out.good()) {
    std::cerr << "ERROR: failed writing bench JSON to '" << path << "'\n";
    SPECMATCH_CHECK_MSG(false, "failed writing bench JSON to '" << path
                                                                << "'");
  }
}

/// Paper-style workload: one virtual channel per seller, one virtual buyer
/// per buyer (the Section-V simulations sweep M and N directly).
inline workload::WorkloadParams paper_params(int num_sellers, int num_buyers,
                                             int similarity_permutation =
                                                 workload::WorkloadParams::
                                                     kIidUtilities) {
  workload::WorkloadParams params;
  params.num_sellers = num_sellers;
  params.num_buyers = num_buyers;
  params.similarity_permutation = similarity_permutation;
  return params;
}

/// Prints a figure panel; set SPECMATCH_CSV=1 to additionally emit the rows
/// as machine-readable CSV (for plotting scripts).
inline void print_panel(const std::string& title, const Table& table) {
  std::cout << "\n== " << title << " ==\n";
  table.print(std::cout);
  if (env_flag("SPECMATCH_CSV")) {
    std::cout << "-- csv --\n";
    table.write_csv(std::cout);
  }
}

}  // namespace specmatch::bench
