// Serving protocol: the typed request/response API of the MatchServer and
// its line-oriented text encoding.
//
// Requests are one line each (blank lines and '#' comments are skipped),
// mirroring workload/io's format discipline so a request file is archivable,
// diffable, and bit-for-bit replayable:
//
//   create <market-id>            followed immediately by an embedded
//                                 scenario block (workload/io format) —
//                                 parsed by the same load_scenario reader
//   join <market-id> <buyer>      re-activate a (virtual) buyer
//   leave <market-id> <buyer>     deactivate a buyer (frees her assignment)
//   price <market-id> <buyer> <channel> <value>
//   solve <market-id> cold|warm   full two-stage rerun vs Stage-II-only
//   query <market-id>             dump the current matching
//   stats <market-id>             deterministic per-market/serving stats
//   snapshot <market-id>          persist the market to the snapshot store
//   restore <market-id>           fault a spilled market back in (barrier)
//
// Responses are one "ok ..." / "err ..." line per request, emitted in
// request order; every numeric field is printed with max_digits10 so a
// transcript replays identically. See docs/SERVING.md for the grammar and
// the determinism contract.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "market/scenario.hpp"

namespace specmatch::serve {

/// Thrown by RequestReader on malformed input; carries the 1-based line
/// number of the offending request-file line. Protocol errors are fatal to
/// the stream (unlike per-request semantic errors, which the server answers
/// with an "err" response and carries on).
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(const std::string& what, int line)
      : std::runtime_error(what), line_(line) {}

  int line() const { return line_; }

 private:
  int line_ = 0;
};

enum class RequestType : std::uint8_t {
  kCreate,
  kJoin,
  kLeave,
  kUpdatePrice,
  kSolve,
  kQuery,
  kStats,
  kSnapshot,
  kRestore,
};

struct Request {
  RequestType type = RequestType::kQuery;
  std::string market_id;
  BuyerId buyer = -1;      ///< kJoin / kLeave / kUpdatePrice
  ChannelId channel = -1;  ///< kUpdatePrice
  double value = 0.0;      ///< kUpdatePrice
  bool warm = false;       ///< kSolve
  /// kCreate payload; shared so Request copies stay cheap.
  std::shared_ptr<const market::Scenario> scenario;

  /// Admission order, assigned by the server: responses can be re-sequenced
  /// into request order by the transcript writer.
  std::uint64_t seq = 0;
  int line = 0;  ///< request-file line (diagnostics only)
};

/// The keyword of a request type ("create", "join", ...).
const char* request_keyword(RequestType type);

/// The request re-serialized in wire format: the verb line (plus, for
/// `create`, the embedded scenario block), newline-terminated. Feeding the
/// result back through RequestReader yields an equivalent request — the
/// round-trip discipline network clients rely on to replay a parsed stream.
std::string format_request(const Request& request);

/// Pulls requests off a line-oriented stream (file, stdin, or a string).
///
/// `line_offset` biases the reported line numbers: a socket session parses
/// each frame from a fresh stream over the unconsumed bytes, so the reader
/// is constructed with the number of lines the connection has already
/// consumed and keeps reporting absolute per-connection line numbers.
class RequestReader {
 public:
  explicit RequestReader(std::istream& is, int line_offset = 0)
      : is_(is), line_(line_offset) {}

  /// Parses the next request into `out`; false at end of input. Throws
  /// ProtocolError on malformed input. Embedded scenarios of `create`
  /// requests are parsed in-line via workload::load_scenario, with their
  /// parse errors rethrown in request-file line coordinates.
  bool next(Request& out);

  int line() const { return line_; }

 private:
  std::istream& is_;
  int line_ = 0;
};

/// Doubles in responses (and anywhere else the protocol prints them) use
/// max_digits10, the workload/io round-trip discipline.
std::string format_double(double value);

/// The canonical ordered key list of the `stats` response tail. Every
/// subsystem's stats fields are registered here instead of being appended ad
/// hoc, and docs_check cross-checks SERVING.md against this list, so a new
/// field cannot ship undocumented.
std::span<const char* const> stats_tail_keys();

/// Builds the ` key=value` tail of a `stats` response. Keys must come from
/// stats_tail_keys() and be added in registry order (keys may be skipped but
/// never reordered or invented), enforced by SPECMATCH_CHECK.
class StatsTailBuilder {
 public:
  StatsTailBuilder& add(const std::string& key, const std::string& value);
  StatsTailBuilder& add(const std::string& key, std::int64_t value);
  StatsTailBuilder& add(const std::string& key, double value);

  const std::string& str() const { return out_; }

 private:
  std::string out_;
  std::size_t next_ = 0;  ///< first registry slot the next key may use
};

}  // namespace specmatch::serve
