#include "common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/check.hpp"

namespace specmatch {

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
  SPECMATCH_CHECK_MSG(!columns_.empty(), "a table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  SPECMATCH_CHECK_MSG(cells.size() == columns_.size(),
                      "row has " << cells.size() << " cells, expected "
                                 << columns_.size());
  body_.push_back(std::move(cells));
}

void Table::add_numeric_row(const std::vector<double>& cells, int precision) {
  std::vector<std::string> formatted;
  formatted.reserve(cells.size());
  for (double v : cells) formatted.push_back(format_double(v, precision));
  add_row(std::move(formatted));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c)
    widths[c] = columns_[c].size();
  for (const auto& row : body_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c])) << cells[c];
      if (c + 1 < cells.size()) os << "  ";
    }
    os << '\n';
  };

  emit(columns_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c)
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : body_) emit(row);
}

void Table::write_csv(std::ostream& os) const {
  auto quote = [](const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
    std::string out = "\"";
    for (char ch : cell) {
      if (ch == '"') out += '"';
      out += ch;
    }
    out += '"';
    return out;
  };
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << quote(cells[c]);
      if (c + 1 < cells.size()) os << ',';
    }
    os << '\n';
  };
  emit(columns_);
  for (const auto& row : body_) emit(row);
}

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

}  // namespace specmatch
