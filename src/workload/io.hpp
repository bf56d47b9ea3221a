// Scenario (de)serialisation — a small line-oriented text format so
// experiments can be archived, diffed and replayed bit-for-bit.
//
//   specmatch-scenario v1
//   sellers <I>            followed by I channel counts m_i
//   buyers <J>             followed by J demands n_j
//   locations              followed by J "x y" lines
//   ranges <M>             followed by M transmission ranges
//   utilities <M> <N>      followed by M lines of N prices (channel-major)
//
// Doubles are emitted with max_digits10, so save -> load round-trips
// exactly.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "market/scenario.hpp"

namespace specmatch::workload {

/// Thrown by load_scenario on malformed input. The message always carries
/// the 1-based line number of the offending line ("... (line 7)"), also
/// exposed structurally via line(); 0 means the failure is not attributable
/// to a line (e.g. an unopenable file).
class ScenarioParseError : public std::runtime_error {
 public:
  explicit ScenarioParseError(const std::string& what, int line = 0)
      : std::runtime_error(what), line_(line) {}

  int line() const { return line_; }

 private:
  int line_ = 0;
};

void save_scenario(std::ostream& os, const market::Scenario& scenario);
market::Scenario load_scenario(std::istream& is);

/// As load_scenario, but line numbers in errors (and the final reader
/// position) are offset by `line_offset` lines already consumed from the
/// surrounding stream — the serve protocol embeds scenarios mid-stream and
/// wants errors in request-file coordinates. On success *lines_consumed
/// (when non-null) receives the number of lines the scenario occupied.
market::Scenario load_scenario(std::istream& is, int line_offset,
                               int* lines_consumed);

/// Parses one whole scenario token in place. Accepts exactly the tokens
/// `std::istringstream(token) >> out` accepts to the end (classic locale),
/// with the same value: an optional '+' or '-', decimal digits, and for
/// doubles a fraction and exponent; no hex, inf or nan, and nothing out of
/// range (a double that underflows is accepted as the stream rounds it).
/// Returns false and leaves `out` unspecified otherwise.
bool parse_token(std::string_view token, int& out);
bool parse_token(std::string_view token, double& out);

/// Convenience file wrappers (throw on I/O failure).
void save_scenario_file(const std::string& path,
                        const market::Scenario& scenario);
market::Scenario load_scenario_file(const std::string& path);

}  // namespace specmatch::workload
