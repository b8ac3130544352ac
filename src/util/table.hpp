// Result tables: one description of a table's columns and rows renders the
// aligned console text, CSV, and the JSON baselines under bench/.
#ifndef DBSM_UTIL_TABLE_HPP
#define DBSM_UTIL_TABLE_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dbsm::util {

/// One table cell: a string, a number already formatted by fmt(), or a
/// bool that the console shows as a word ("ok", "VIOLATION", ...).
struct cell {
  enum class kind : std::uint8_t { string, number, boolean };

  cell() = default;
  cell(std::string s) : text(std::move(s)) {}
  cell(const char* s) : text(s) {}
  cell(std::string s, kind k, bool v = false)
      : text(std::move(s)), type(k), value(v) {}

  std::string text;  // the console text
  kind type = kind::string;
  bool value = false;  // a boolean cell's value
};

/// Number cells, formatted as by fmt().
cell num(double v, int digits = 2);
cell num(std::int64_t v);
cell num(std::size_t v);

/// A bool cell the console shows as `word`.
cell boolean(bool v, std::string word);

/// A check's verdict: true shows as "ok", false as `failed`.
cell verdict(bool ok, const char* failed = "VIOLATION");

/// Key/value pairs rendered as one inline JSON object.
using json_members = std::vector<std::pair<std::string, cell>>;

/// A result table. Each column names its console heading and its CSV/JSON
/// key; an empty heading hides the column from the console, an empty key
/// hides it from CSV and JSON.
class text_table {
 public:
  struct column {
    std::string heading;
    std::string key;
  };

  void columns(std::vector<column> cols);

  /// Columns whose heading doubles as their CSV/JSON key.
  void header(std::vector<std::string> headings);

  /// Appends a data row; it may have fewer cells than there are columns.
  void row(std::vector<cell> cells);

  /// Adds a header line of the JSON document, written before the rows.
  void field(const std::string& key, const cell& value);
  void field(const std::string& key, const json_members& object);

  /// The JSON key the rows are listed under ("points" unless set).
  void rows_key(std::string key) { rows_key_ = std::move(key); }

  /// Renders the console columns with two-space separation and a rule
  /// under the header; the first is left-aligned, the rest right-aligned.
  std::string to_string() const;

  /// Renders the keyed columns: a key header, then one line per row, with
  /// bools as 1/0.
  std::string to_csv() const;

  /// Renders the header fields, then one inline object per row under the
  /// rows key. Strings are quoted with `"` and `\` escaped.
  std::string to_json() const;

 private:
  std::vector<column> cols_;
  std::vector<std::vector<cell>> rows_;
  std::vector<std::string> fields_;  // rendered "key": value lines
  std::string rows_key_ = "points";
};

/// Formats a double with `digits` digits after the decimal point.
std::string fmt(double v, int digits = 2);

/// Formats an integer count.
std::string fmt(std::int64_t v);
std::string fmt(std::size_t v);

}  // namespace dbsm::util

#endif  // DBSM_UTIL_TABLE_HPP
