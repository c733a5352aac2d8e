#include "common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace vmstorm {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

Table& Table::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < header_.size(); ++c) {
      os << (c ? "  " : "");
      const std::string& cell = c < row.size() ? row[c] : std::string();
      os << cell << std::string(width[c] - cell.size(), ' ');
    }
    os << "\n";
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < header_.size(); ++c) total += width[c] + (c ? 2 : 0);
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void Table::print() const { std::fputs(to_string().c_str(), stdout); }

}  // namespace vmstorm
