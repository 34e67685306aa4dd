// Pattern rendering and the single-pattern text format.
//
// render_pattern draws a pattern the way the paper's figures do;
// serialize_pattern / parse_pattern round-trip one pattern through a small
// text record, which store::PatternStore uses for its entries.  The shipped
// per-P answers live elsewhere: store::WinnersTable (data/gcrm_winners.tsv)
// records the GCR&M winner for every node count, and LU needs no table
// because its G-2DBC answer is closed-form.
//
// Parsing is hardened against hostile or damaged input: a truncated,
// corrupt, or absurdly-sized record raises PatternIoError (naming the
// offending path and what went wrong) through load_pattern_file, and the
// optional-returning parse_pattern overloads report failure without ever
// crashing or silently misparsing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/pattern.hpp"

namespace anyblock::core {

/// Typed failure of a pattern parse or file load: `path()` names the file
/// ("<string>" for in-memory parses) and `detail()` says what was wrong.
class PatternIoError : public std::runtime_error {
 public:
  PatternIoError(std::string path, std::string detail);
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const std::string& detail() const { return detail_; }

 private:
  std::string path_;
  std::string detail_;
};

/// Hard ceilings on a parsed pattern's geometry.  Real patterns are tiny
/// (r <= 6*sqrt(P)); the caps exist so a malformed header like
/// "pattern 99999999999 9 9" fails cleanly instead of attempting a
/// multi-terabyte allocation or overflowing rows*cols.
inline constexpr std::int64_t kMaxPatternSide = 1 << 20;
inline constexpr std::int64_t kMaxPatternCells = std::int64_t{1} << 26;

/// Renders the pattern as an aligned grid of node ids; free cells print as
/// '.'.  Matches the style of the paper's Fig. 3 illustration.
std::string render_pattern(const Pattern& pattern);

/// Compact single-record text form:
///   pattern <rows> <cols> <num_nodes>
///   <cells, row-major, -1 for free>
std::string serialize_pattern(const Pattern& pattern);

/// Parses the serialize_pattern() form; returns nullopt on malformed input.
/// The `error` overload additionally reports what was malformed.
std::optional<Pattern> parse_pattern(std::istream& in);
std::optional<Pattern> parse_pattern(std::istream& in, std::string* error);
std::optional<Pattern> parse_pattern_string(const std::string& text);

/// Strict file load of one serialized pattern; throws PatternIoError (with
/// the offending path) on a missing, truncated, or corrupt file.
Pattern load_pattern_file(const std::string& path);

}  // namespace anyblock::core
