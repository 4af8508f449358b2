#include "util/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace clear::util {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TextTable::factor(double v) {
  char buf[64];
  if (v >= 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.1fx", v);
    // insert thousands separators
    std::string s(buf);
    const auto dot = s.find('.');
    std::string head = s.substr(0, dot);
    for (int i = static_cast<int>(head.size()) - 3; i > 0; i -= 3) {
      head.insert(static_cast<std::size_t>(i), ",");
    }
    return head + s.substr(dot);
  }
  if (v >= 100.0) {
    std::snprintf(buf, sizeof(buf), "%.0fx", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fx", v);
  }
  return buf;
}

std::string TextTable::pct(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, v);
  return buf;
}

std::string TextTable::str() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    out << '|';
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : headers_[c];
      out << ' ' << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    out << '\n';
  };
  emit_row(headers_);
  out << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << '|';
  }
  out << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string TextTable::csv() const {
  const auto escape = [](const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
    std::string quoted = "\"";
    for (const char c : cell) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    quoted += '"';
    return quoted;
  };
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      if (c > 0) out << ',';
      out << escape(c < cells.size() ? cells[c] : "");
    }
    out << '\n';
  };
  emit_row(headers_);
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void TextTable::print(std::ostream& os) const { os << str(); }

}  // namespace clear::util
