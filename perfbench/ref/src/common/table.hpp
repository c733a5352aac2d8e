// Plain-text table printer used by the benchmark harness to emit the rows
// and series the paper's figures plot.
#pragma once

#include <string>
#include <vector>

namespace vmstorm {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  Table& add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 2);

  std::string to_string() const;
  void print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace vmstorm
