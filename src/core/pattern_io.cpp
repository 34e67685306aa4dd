#include "core/pattern_io.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>

namespace anyblock::core {

PatternIoError::PatternIoError(std::string path, std::string detail)
    : std::runtime_error(path + ": " + detail),
      path_(std::move(path)),
      detail_(std::move(detail)) {}

std::string render_pattern(const Pattern& pattern) {
  // Column width fits the largest node id.
  int width = 1;
  for (std::int64_t v = pattern.num_nodes() - 1; v >= 10; v /= 10) ++width;
  std::ostringstream oss;
  for (std::int64_t i = 0; i < pattern.rows(); ++i) {
    for (std::int64_t j = 0; j < pattern.cols(); ++j) {
      if (j > 0) oss << ' ';
      const NodeId n = pattern.at(i, j);
      if (n == Pattern::kFree) {
        oss << std::setw(width) << '.';
      } else {
        oss << std::setw(width) << n;
      }
    }
    oss << '\n';
  }
  return oss.str();
}

std::string serialize_pattern(const Pattern& pattern) {
  std::ostringstream oss;
  oss << "pattern " << pattern.rows() << ' ' << pattern.cols() << ' '
      << pattern.num_nodes() << '\n';
  for (std::int64_t i = 0; i < pattern.rows(); ++i) {
    for (std::int64_t j = 0; j < pattern.cols(); ++j) {
      if (j > 0) oss << ' ';
      oss << pattern.at(i, j);
    }
    oss << '\n';
  }
  return oss.str();
}

namespace {

std::optional<Pattern> fail(std::string* error, const std::string& detail) {
  if (error != nullptr) *error = detail;
  return std::nullopt;
}

}  // namespace

std::optional<Pattern> parse_pattern(std::istream& in, std::string* error) {
  std::string tag;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t nodes = 0;
  if (!(in >> tag)) return fail(error, "truncated: missing 'pattern' header");
  if (tag != "pattern")
    return fail(error, "bad header tag '" + tag + "' (expected 'pattern')");
  if (!(in >> rows >> cols >> nodes))
    return fail(error, "truncated or non-numeric pattern dimensions");
  if (rows <= 0 || cols <= 0 || nodes <= 0)
    return fail(error, "non-positive pattern dimensions");
  if (rows > kMaxPatternSide || cols > kMaxPatternSide ||
      rows > kMaxPatternCells / cols) {
    std::ostringstream oss;
    oss << "implausible pattern size " << rows << "x" << cols
        << " (cap: side <= " << kMaxPatternSide << ", cells <= "
        << kMaxPatternCells << ")";
    return fail(error, oss.str());
  }
  if (nodes > rows * cols)
    return fail(error, "more nodes than cells");
  Pattern pattern(rows, cols, nodes);
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      std::int64_t value = 0;
      if (!(in >> value)) {
        std::ostringstream oss;
        oss << "truncated or non-numeric cell (" << i << ", " << j << ")";
        return fail(error, oss.str());
      }
      if (value != Pattern::kFree && (value < 0 || value >= nodes)) {
        std::ostringstream oss;
        oss << "cell (" << i << ", " << j << ") holds node id " << value
            << " outside [0, " << nodes << ")";
        return fail(error, oss.str());
      }
      pattern.set(i, j, static_cast<NodeId>(value));
    }
  }
  return pattern;
}

std::optional<Pattern> parse_pattern(std::istream& in) {
  return parse_pattern(in, nullptr);
}

std::optional<Pattern> parse_pattern_string(const std::string& text) {
  std::istringstream iss(text);
  return parse_pattern(iss);
}

Pattern load_pattern_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw PatternIoError(path, "cannot open file");
  std::string detail;
  auto pattern = parse_pattern(in, &detail);
  if (!pattern) throw PatternIoError(path, detail);
  return std::move(*pattern);
}

}  // namespace anyblock::core
