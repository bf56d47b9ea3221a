#include "workload/io.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <numeric>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "common/check.hpp"

namespace specmatch::workload {

namespace {

constexpr const char* kMagic = "specmatch-scenario v1";

/// The stream's own verdict, for the rare tokens from_chars calls out of
/// range: the stream fails on overflow but rounds a double's underflow.
template <typename T>
bool stream_parse(std::string_view token, T& out) {
  std::istringstream ss{std::string(token)};
  ss >> out;
  return !ss.fail() && ss.eof();
}

template <typename T>
bool parse_number(std::string_view token, T& out) {
  // The stream takes one leading '+'; from_chars takes none.
  std::string_view digits = token;
  if (!digits.empty() && digits.front() == '+') {
    digits.remove_prefix(1);
    if (!digits.empty() && (digits.front() == '+' || digits.front() == '-'))
      return false;
  }
  T value{};
  const char* const end = digits.data() + digits.size();
  const auto [stop, error] = std::from_chars(digits.data(), end, value);
  if (error == std::errc::result_out_of_range)
    return stream_parse(token, out);
  if (error != std::errc() || stop != end) return false;
  // from_chars reads inf and nan; the stream reads neither.
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(value)) return false;
  out = value;
  return true;
}

/// Line-tracking tokenizer over the input stream. Values may be laid out
/// with any whitespace (the writer packs a section per line, hand-written
/// fixtures put one value per line; both parse), but section headers must
/// start on a fresh line and every parse error is attributed to the 1-based
/// line it occurred on — the serve protocol embeds scenarios mid-stream and
/// reports errors in request-file coordinates via the line offset.
class TokenReader {
 public:
  TokenReader(std::istream& is, int line_offset)
      : is_(is), line_(line_offset) {}

  int line() const { return line_; }

  [[noreturn]] void fail(const std::string& message) const {
    std::ostringstream what;
    what << "scenario parse error: " << message << " (line " << line_ << ")";
    throw ScenarioParseError(what.str(), line_);
  }

  /// Unconsumed tokens left on the current line?
  bool line_has_more() {
    while (pos_ < current_.size() &&
           std::isspace(static_cast<unsigned char>(current_[pos_])))
      ++pos_;
    return pos_ < current_.size();
  }

  /// Advances to the next line; false at end of input.
  bool next_line() {
    if (!std::getline(is_, current_)) return false;
    ++line_;
    pos_ = 0;
    return true;
  }

  /// Next whitespace-delimited token, reading further lines as needed. The
  /// view points into the current line: valid until the next read.
  bool next_token(std::string_view& out) {
    while (!line_has_more())
      if (!next_line()) return false;
    const std::size_t start = pos_;
    while (pos_ < current_.size() &&
           !std::isspace(static_cast<unsigned char>(current_[pos_])))
      ++pos_;
    out = std::string_view(current_).substr(start, pos_ - start);
    return true;
  }

  /// Next token parsed as T; the whole token must convert.
  template <typename T>
  void next_value(T& out, const std::string& what) {
    std::string_view token;
    if (!next_token(token)) fail("truncated " + what);
    if (!parse_token(token, out))
      fail("malformed value '" + std::string(token) + "' in " + what);
  }

  /// Reads `count` values into `out`. Storage grows with the values actually
  /// read, never with the claimed count: a header may claim any count, and a
  /// short section fails as truncated after allocating only what it held.
  template <typename T>
  void next_values(std::vector<T>& out, std::size_t count,
                   const std::string& what) {
    out.clear();
    for (std::size_t k = 0; k < count; ++k) {
      T value{};
      next_value(value, what);
      out.push_back(value);
    }
  }

  /// Starts a section: the previous one must be fully consumed and the
  /// header ("<keyword>" or "<keyword> <count...>") must sit on its own
  /// fresh line. Returns the header's whitespace-split tokens.
  std::vector<std::string> header_line(const std::string& wanted) {
    if (line_has_more())
      fail("trailing values before '" + wanted + "' header");
    if (!next_line()) fail("unexpected end of input, wanted '" + wanted + "'");
    std::vector<std::string> tokens;
    std::string_view token;
    while (line_has_more()) {  // the header line is consumed as a unit
      next_token(token);
      tokens.emplace_back(token);
    }
    if (tokens.empty()) fail("blank line where '" + wanted + "' expected");
    return tokens;
  }

  /// Parses `token`, a count in the `header` line, as a std::size_t. A
  /// leading '-' fails here, naming the header, rather than wrapping.
  std::size_t header_count(const std::string& token,
                           const std::string& header) {
    if (!token.empty() && token.front() == '-')
      fail("negative count '" + token + "' in '" + header + "'");
    std::size_t count = 0;
    if (!parse_number(token, count))
      fail("malformed count '" + token + "' in '" + header + "'");
    return count;
  }

  /// Reads "<keyword> <positive count>" on its own line.
  int counted_header(const std::string& keyword) {
    const auto tokens = header_line(keyword + " <count>");
    if (tokens.size() != 2 || tokens[0] != keyword)
      fail("expected '" + keyword + " <positive count>', got '" + tokens[0] +
           "'");
    int count = 0;
    if (!parse_token(tokens[1], count) || count <= 0)
      fail("expected '" + keyword + " <positive count>', got count '" +
           tokens[1] + "'");
    return count;
  }

 private:
  std::istream& is_;
  int line_;
  std::string current_;
  std::size_t pos_ = 0;
};

}  // namespace

bool parse_token(std::string_view token, int& out) {
  return parse_number(token, out);
}

bool parse_token(std::string_view token, double& out) {
  return parse_number(token, out);
}

void save_scenario(std::ostream& os, const market::Scenario& scenario) {
  scenario.validate();
  os << kMagic << '\n';
  os << std::setprecision(std::numeric_limits<double>::max_digits10);

  os << "sellers " << scenario.seller_channel_counts.size() << '\n';
  for (std::size_t i = 0; i < scenario.seller_channel_counts.size(); ++i)
    os << scenario.seller_channel_counts[i]
       << (i + 1 < scenario.seller_channel_counts.size() ? ' ' : '\n');

  os << "buyers " << scenario.buyer_demands.size() << '\n';
  for (std::size_t i = 0; i < scenario.buyer_demands.size(); ++i)
    os << scenario.buyer_demands[i]
       << (i + 1 < scenario.buyer_demands.size() ? ' ' : '\n');

  os << "locations\n";
  for (const auto& loc : scenario.buyer_locations)
    os << loc.x << ' ' << loc.y << '\n';

  os << "ranges " << scenario.channel_ranges.size() << '\n';
  for (std::size_t i = 0; i < scenario.channel_ranges.size(); ++i)
    os << scenario.channel_ranges[i]
       << (i + 1 < scenario.channel_ranges.size() ? ' ' : '\n');

  if (!scenario.channel_reserves.empty()) {
    os << "reserves " << scenario.channel_reserves.size() << '\n';
    for (std::size_t i = 0; i < scenario.channel_reserves.size(); ++i)
      os << scenario.channel_reserves[i]
         << (i + 1 < scenario.channel_reserves.size() ? ' ' : '\n');
  }

  const auto M = static_cast<std::size_t>(scenario.num_channels());
  const auto N = static_cast<std::size_t>(scenario.num_virtual_buyers());
  os << "utilities " << M << ' ' << N << '\n';
  for (std::size_t i = 0; i < M; ++i) {
    for (std::size_t j = 0; j < N; ++j)
      os << scenario.utilities[i * N + j] << (j + 1 < N ? ' ' : '\n');
  }
}

market::Scenario load_scenario(std::istream& is) {
  return load_scenario(is, 0, nullptr);
}

market::Scenario load_scenario(std::istream& is, int line_offset,
                               int* lines_consumed) {
  TokenReader reader(is, line_offset);

  if (!reader.next_line())
    reader.fail(std::string("missing header '") + kMagic + "'");
  {
    std::string magic;
    std::string_view token;
    while (reader.line_has_more()) {
      reader.next_token(token);
      if (!magic.empty()) magic += ' ';
      magic += token;
    }
    if (magic != kMagic)
      reader.fail(std::string("missing header '") + kMagic + "'");
  }

  market::Scenario scenario;

  const int num_sellers = reader.counted_header("sellers");
  reader.next_values(scenario.seller_channel_counts,
                     static_cast<std::size_t>(num_sellers),
                     "seller channel counts");

  const int num_buyers = reader.counted_header("buyers");
  reader.next_values(scenario.buyer_demands,
                     static_cast<std::size_t>(num_buyers), "buyer demands");

  {
    const auto tokens = reader.header_line("locations");
    if (tokens.size() != 1 || tokens[0] != "locations")
      reader.fail("expected 'locations', got '" + tokens[0] + "'");
  }
  for (int b = 0; b < num_buyers; ++b) {
    graph::Point loc;
    reader.next_value(loc.x, "buyer locations");
    reader.next_value(loc.y, "buyer locations");
    scenario.buyer_locations.push_back(loc);
  }

  const int num_ranges = reader.counted_header("ranges");
  reader.next_values(scenario.channel_ranges,
                     static_cast<std::size_t>(num_ranges), "channel ranges");

  // Optional "reserves <M>" section (format extension; absent in files
  // written before reserve prices existed), then the mandatory utilities
  // matrix. Duplicated sections are rejected explicitly rather than left to
  // cascade into a confusing downstream keyword mismatch.
  bool have_reserves = false;
  std::size_t M = 0;
  std::size_t N = 0;
  while (true) {
    const auto tokens = reader.header_line("reserves or utilities");
    if (tokens[0] == "reserves") {
      if (have_reserves) reader.fail("duplicate 'reserves' section");
      if (tokens.size() != 2)
        reader.fail("expected 'reserves <positive count>'");
      const std::size_t count =
          reader.header_count(tokens[1], "reserves <count>");
      if (count == 0) reader.fail("expected 'reserves <positive count>'");
      reader.next_values(scenario.channel_reserves, count, "channel reserves");
      have_reserves = true;
      continue;
    }
    if (tokens[0] == "utilities") {
      if (tokens.size() != 3) reader.fail("expected 'utilities <M> <N>'");
      M = reader.header_count(tokens[1], "utilities <M> <N>");
      N = reader.header_count(tokens[2], "utilities <M> <N>");
      if (M == 0 || N == 0) reader.fail("expected 'utilities <M> <N>'");
      break;
    }
    reader.fail("expected 'reserves' or 'utilities', got '" + tokens[0] + "'");
  }
  // Before a single entry is stored, the matrix shape must fit the engine's
  // int ids (so M x N cannot overflow) and agree with the sections already
  // read: M channels summed over the sellers, N virtual buyers over demands.
  constexpr std::size_t kMaxIds = std::numeric_limits<int>::max();
  if (M > kMaxIds || N > kMaxIds)
    reader.fail("'utilities <M> <N>' exceeds " + std::to_string(kMaxIds) +
                " (M x N would overflow)");
  const auto channels =
      std::accumulate(scenario.seller_channel_counts.begin(),
                      scenario.seller_channel_counts.end(), std::int64_t{0});
  const auto buyers = std::accumulate(scenario.buyer_demands.begin(),
                                      scenario.buyer_demands.end(),
                                      std::int64_t{0});
  if (static_cast<std::int64_t>(M) != channels ||
      static_cast<std::int64_t>(N) != buyers)
    reader.fail("'utilities " + std::to_string(M) + " " + std::to_string(N) +
                "' disagrees with the sellers and buyers sections (" +
                std::to_string(channels) + " channels, " +
                std::to_string(buyers) + " virtual buyers)");
  reader.next_values(scenario.utilities, M * N, "utility matrix");
  if (reader.line_has_more())
    reader.fail("trailing values after the utility matrix");

  try {
    scenario.validate();
  } catch (const CheckError& e) {
    reader.fail(std::string("inconsistent scenario: ") + e.what());
  }
  if (lines_consumed != nullptr)
    *lines_consumed = reader.line() - line_offset;
  return scenario;
}

void save_scenario_file(const std::string& path,
                        const market::Scenario& scenario) {
  std::ofstream os(path);
  SPECMATCH_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  save_scenario(os, scenario);
  SPECMATCH_CHECK_MSG(os.good(), "write to " << path << " failed");
}

market::Scenario load_scenario_file(const std::string& path) {
  std::ifstream is(path);
  if (!is.good())
    throw ScenarioParseError("scenario parse error: cannot open " + path);
  return load_scenario(is);
}

}  // namespace specmatch::workload
