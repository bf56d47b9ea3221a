#include "serve/protocol.hpp"

#include <iomanip>
#include <istream>
#include <limits>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "workload/io.hpp"

namespace specmatch::serve {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  std::ostringstream what;
  what << "serve protocol error: " << message << " (line " << line << ")";
  throw ProtocolError(what.str(), line);
}

/// Whole token parsed as T, or a protocol error naming the field.
template <typename T>
T parse_value(int line, const std::string& token, const char* what) {
  std::istringstream ss(token);
  T out{};
  ss >> out;
  if (ss.fail() || !ss.eof())
    fail(line, std::string("malformed ") + what + " '" + token + "'");
  return out;
}

void require_args(int line, const std::vector<std::string>& tokens,
                  std::size_t count, const char* usage) {
  if (tokens.size() != count)
    fail(line, "expected '" + std::string(usage) + "', got '" + tokens[0] +
                   "' with " + std::to_string(tokens.size() - 1) +
                   " argument(s)");
}

}  // namespace

const char* request_keyword(RequestType type) {
  switch (type) {
    case RequestType::kCreate: return "create";
    case RequestType::kJoin: return "join";
    case RequestType::kLeave: return "leave";
    case RequestType::kUpdatePrice: return "price";
    case RequestType::kSolve: return "solve";
    case RequestType::kQuery: return "query";
    case RequestType::kStats: return "stats";
    case RequestType::kSnapshot: return "snapshot";
    case RequestType::kRestore: return "restore";
  }
  return "?";
}

namespace {

// Single source of truth for the `stats` response tail, in response order.
// docs_check extracts the quoted names between the markers below and fails
// if SERVING.md does not document every one of them. One name per line.
constexpr const char* kStatsTailKeys[] = {
    // stats-tail-keys-begin
    "active",
    "matched",
    "welfare",
    "solves",
    "fallbacks",
    "fallbacks_cold_start",
    "fallbacks_invariant",
    "mutations",
    "markets",
    "bytes",
    "evictions",
    "spilled",
    "spills",
    "faults",
    "discarded",
    "disk_bytes",
    // stats-tail-keys-end
};

}  // namespace

std::span<const char* const> stats_tail_keys() { return kStatsTailKeys; }

StatsTailBuilder& StatsTailBuilder::add(const std::string& key,
                                        const std::string& value) {
  const auto keys = stats_tail_keys();
  std::size_t slot = next_;
  while (slot < keys.size() && key != keys[slot]) ++slot;
  SPECMATCH_CHECK_MSG(slot < keys.size(),
                      "stats tail key '"
                          << key
                          << "' is not registered (in order) in "
                             "protocol.cpp's kStatsTailKeys");
  next_ = slot + 1;
  out_ += ' ';
  out_ += key;
  out_ += '=';
  out_ += value;
  return *this;
}

StatsTailBuilder& StatsTailBuilder::add(const std::string& key,
                                        std::int64_t value) {
  return add(key, std::to_string(value));
}

StatsTailBuilder& StatsTailBuilder::add(const std::string& key, double value) {
  return add(key, format_double(value));
}

std::string format_double(double value) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
  return out.str();
}

std::string format_request(const Request& request) {
  std::ostringstream out;
  out << request_keyword(request.type);
  switch (request.type) {
    case RequestType::kCreate:
      out << " " << request.market_id << "\n";
      SPECMATCH_CHECK_MSG(request.scenario != nullptr,
                          "create request has no scenario payload");
      workload::save_scenario(out, *request.scenario);
      return out.str();
    case RequestType::kJoin:
    case RequestType::kLeave:
      out << " " << request.market_id << " " << request.buyer;
      break;
    case RequestType::kUpdatePrice:
      out << " " << request.market_id << " " << request.buyer << " "
          << request.channel << " " << format_double(request.value);
      break;
    case RequestType::kSolve:
      out << " " << request.market_id << (request.warm ? " warm" : " cold");
      break;
    case RequestType::kQuery:
    case RequestType::kStats:
    case RequestType::kSnapshot:
    case RequestType::kRestore:
      out << " " << request.market_id;
      break;
  }
  out << "\n";
  return out.str();
}

bool RequestReader::next(Request& out) {
  std::string raw;
  while (std::getline(is_, raw)) {
    ++line_;
    std::istringstream ss(raw);
    std::vector<std::string> tokens;
    std::string token;
    while (ss >> token) tokens.push_back(token);
    if (tokens.empty() || tokens[0][0] == '#') continue;  // blank / comment

    out = Request{};
    out.line = line_;
    const std::string& verb = tokens[0];
    if (verb == "create") {
      require_args(line_, tokens, 2, "create <market-id>");
      out.type = RequestType::kCreate;
      out.market_id = tokens[1];
      // The scenario block follows immediately, in workload/io's format —
      // parsed by the very same reader, in our line coordinates.
      int consumed = 0;
      try {
        out.scenario = std::make_shared<market::Scenario>(
            workload::load_scenario(is_, line_, &consumed));
      } catch (const workload::ScenarioParseError& e) {
        throw ProtocolError(std::string("serve protocol error: embedded "
                                        "scenario: ") +
                                e.what(),
                            e.line());
      }
      line_ += consumed;
      return true;
    }
    if (verb == "join" || verb == "leave") {
      require_args(line_, tokens, 3,
                   verb == "join" ? "join <market-id> <buyer>"
                                  : "leave <market-id> <buyer>");
      out.type = verb == "join" ? RequestType::kJoin : RequestType::kLeave;
      out.market_id = tokens[1];
      out.buyer = parse_value<BuyerId>(line_, tokens[2], "buyer id");
      return true;
    }
    if (verb == "price") {
      require_args(line_, tokens, 5,
                   "price <market-id> <buyer> <channel> <value>");
      out.type = RequestType::kUpdatePrice;
      out.market_id = tokens[1];
      out.buyer = parse_value<BuyerId>(line_, tokens[2], "buyer id");
      out.channel = parse_value<ChannelId>(line_, tokens[3], "channel id");
      out.value = parse_value<double>(line_, tokens[4], "price");
      return true;
    }
    if (verb == "solve") {
      require_args(line_, tokens, 3, "solve <market-id> cold|warm");
      out.type = RequestType::kSolve;
      out.market_id = tokens[1];
      if (tokens[2] == "warm")
        out.warm = true;
      else if (tokens[2] == "cold")
        out.warm = false;
      else
        fail(line_, "solve mode must be 'cold' or 'warm', got '" + tokens[2] +
                        "'");
      return true;
    }
    if (verb == "query" || verb == "stats" || verb == "snapshot" ||
        verb == "restore") {
      require_args(line_, tokens, 2,
                   (verb + " <market-id>").c_str());
      if (verb == "query")
        out.type = RequestType::kQuery;
      else if (verb == "stats")
        out.type = RequestType::kStats;
      else if (verb == "snapshot")
        out.type = RequestType::kSnapshot;
      else
        out.type = RequestType::kRestore;
      out.market_id = tokens[1];
      return true;
    }
    fail(line_, "unknown request '" + verb + "'");
  }
  return false;
}

}  // namespace specmatch::serve
