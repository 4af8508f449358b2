// Plain-text table rendering used by the paper_tables printer to print
// paper-style tables (paper-reported reference values next to measured),
// plus the JSON string escaper behind the repo's JSON outputs.
#ifndef CLEAR_UTIL_TABLE_H
#define CLEAR_UTIL_TABLE_H

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace clear::util {

// Escapes a string for embedding in a JSON string literal (backslash,
// quote and control characters) -- the one escaper behind every JSON
// document the CLI, the metrics registry and the fleet driver write.
[[nodiscard]] std::string json_escape(const std::string& s);

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  // Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 1);
  // Formats an improvement factor like the paper ("50x", "5,568.9x").
  static std::string factor(double v);
  // Formats a percentage ("2.1%").
  static std::string pct(double v, int precision = 1);

  [[nodiscard]] std::string str() const;
  // RFC-4180-style CSV of the same header + rows (cells containing commas,
  // quotes or newlines are quoted; quotes doubled).  Used by
  // `clear report --format csv`.
  [[nodiscard]] std::string csv() const;
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace clear::util

#endif  // CLEAR_UTIL_TABLE_H
