#include "util/table.hpp"

#include <algorithm>
#include <cstdio>

#include "util/check.hpp"

namespace dbsm::util {

namespace {

/// Row `r`'s cell in column `i`; rows may be shorter than the columns.
const cell& at(const std::vector<cell>& r, std::size_t i) {
  static const cell empty;
  return i < r.size() ? r[i] : empty;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + '"';
}

std::string json_value(const cell& c) {
  switch (c.type) {
    case cell::kind::number:
      return c.text;
    case cell::kind::boolean:
      return c.value ? "true" : "false";
    case cell::kind::string:
      break;
  }
  return json_string(c.text);
}

std::string json_object(const json_members& members) {
  std::string out = "{";
  for (const auto& [key, value] : members) {
    if (out.size() > 1) out += ", ";
    out += json_string(key) + ": " + json_value(value);
  }
  return out + "}";
}

std::string csv_value(const cell& c) {
  if (c.type == cell::kind::boolean) return c.value ? "1" : "0";
  return c.text;
}

}  // namespace

cell num(double v, int digits) { return {fmt(v, digits), cell::kind::number}; }
cell num(std::int64_t v) { return {fmt(v), cell::kind::number}; }
cell num(std::size_t v) { return {fmt(v), cell::kind::number}; }

cell boolean(bool v, std::string word) {
  return {std::move(word), cell::kind::boolean, v};
}

cell verdict(bool ok, const char* failed) {
  return boolean(ok, ok ? "ok" : failed);
}

void text_table::columns(std::vector<column> cols) { cols_ = std::move(cols); }

void text_table::header(std::vector<std::string> headings) {
  cols_.clear();
  for (std::string& h : headings) cols_.push_back({h, std::move(h)});
}

void text_table::row(std::vector<cell> cells) {
  DBSM_CHECK_MSG(cells.size() <= cols_.size(),
                 cells.size() << " cells for " << cols_.size() << " columns");
  rows_.push_back(std::move(cells));
}

void text_table::field(const std::string& key, const cell& value) {
  fields_.push_back(json_string(key) + ": " + json_value(value));
}

void text_table::field(const std::string& key, const json_members& object) {
  fields_.push_back(json_string(key) + ": " + json_object(object));
}

std::string text_table::to_string() const {
  std::vector<std::size_t> shown;
  for (std::size_t i = 0; i < cols_.size(); ++i)
    if (!cols_[i].heading.empty()) shown.push_back(i);
  if (shown.empty()) return {};
  std::vector<std::size_t> width(cols_.size(), 0);
  for (const std::size_t i : shown) {
    width[i] = cols_[i].heading.size();
    for (const auto& r : rows_)
      width[i] = std::max(width[i], at(r, i).text.size());
  }

  std::string out;
  auto line = [&](auto&& text_of) {
    for (std::size_t k = 0; k < shown.size(); ++k) {
      const std::string& s = text_of(shown[k]);
      const std::string pad(width[shown[k]] - s.size(), ' ');
      out += k == 0 ? s + pad : "  " + pad + s;
    }
    out += '\n';
  };
  line([&](std::size_t i) -> const std::string& { return cols_[i].heading; });
  std::size_t rule = 2 * (shown.size() - 1);
  for (const std::size_t i : shown) rule += width[i];
  out += std::string(rule, '-') + '\n';
  for (const auto& r : rows_)
    line([&](std::size_t i) -> const std::string& { return at(r, i).text; });
  return out;
}

std::string text_table::to_csv() const {
  std::string out;
  auto line = [&](auto&& value_of) {
    bool first = true;
    for (std::size_t i = 0; i < cols_.size(); ++i) {
      if (cols_[i].key.empty()) continue;
      if (!first) out += ',';
      first = false;
      out += value_of(i);
    }
    out += '\n';
  };
  line([&](std::size_t i) { return cols_[i].key; });
  for (const auto& r : rows_)
    line([&](std::size_t i) { return csv_value(at(r, i)); });
  return out;
}

std::string text_table::to_json() const {
  std::string out = "{\n";
  for (const std::string& f : fields_) out += "  " + f + ",\n";
  out += "  " + json_string(rows_key_) + ": [\n";
  for (std::size_t n = 0; n < rows_.size(); ++n) {
    json_members members;
    for (std::size_t i = 0; i < cols_.size(); ++i)
      if (!cols_[i].key.empty())
        members.emplace_back(cols_[i].key, at(rows_[n], i));
    out += "    " + json_object(members) +
           (n + 1 < rows_.size() ? ",\n" : "\n");
  }
  return out + "  ]\n}\n";
}

std::string fmt(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string fmt(std::int64_t v) { return std::to_string(v); }
std::string fmt(std::size_t v) { return std::to_string(v); }

}  // namespace dbsm::util
