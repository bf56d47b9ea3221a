// Aligned text tables and CSV emission for the benchmark harnesses.
//
// Every fig*/ablation_* binary prints one table per paper figure panel; Table
// renders it human-readable on stdout and (optionally) machine-readable CSV.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace specmatch {

class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  /// Appends a row; must have exactly one cell per column.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with `precision` digits after the point.
  void add_numeric_row(const std::vector<double>& cells, int precision = 4);

  std::size_t num_rows() const { return body_.size(); }
  std::size_t num_columns() const { return columns_.size(); }

  /// Space-aligned rendering with a header rule.
  void print(std::ostream& os) const;

  /// RFC-4180-ish CSV (cells containing commas/quotes are quoted).
  void write_csv(std::ostream& os) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> body_;
};

/// Formats a double with fixed precision (helper shared by harnesses).
std::string format_double(double value, int precision = 4);

}  // namespace specmatch
