// Plain-text table formatting for the tools (ambb_sweep prints each paper
// figure's rows/series with it, tools/figures.cpp).
#pragma once

#include <string>
#include <vector>

namespace ambb {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Render with aligned columns, a header underline, and `indent` leading
  /// spaces on every line.
  std::string render(int indent = 0) const;

  static std::string num(double v, int precision = 1);
  static std::string bits_human(double bits);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ambb
