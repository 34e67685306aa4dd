#include "gates.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace anyblock::bench {

namespace {

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Lines of `text` that contain `key`.
std::vector<std::string> lines_with(const std::string& text,
                                    const std::string& key) {
  std::vector<std::string> found;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);)
    if (line.find(key) != std::string::npos) found.push_back(line);
  return found;
}

std::string tail(const std::string& text) {
  return text.size() <= 300 ? text : "..." + text.substr(text.size() - 300);
}

Failure exited_ok(const ProcessResult& result) {
  if (result.exit_code == 0) return std::nullopt;
  return "exit code " + std::to_string(result.exit_code) + ": " +
         tail(result.err);
}

/// A recommendation as the CLI's JSON output shows it.
struct ServedSummary {
  std::string scheme;
  std::string source;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  double cost = 0.0;
};

/// The first result of `recommend --format json`; nullopt when the output
/// does not hold one.
std::optional<ServedSummary> parse_recommend_json(const std::string& text) {
  const std::size_t results = text.find("\"results\":[{");
  if (results == std::string::npos) return std::nullopt;
  const std::string first =
      text.substr(results, text.find('}', results) - results + 1);
  const auto scheme = json_field(first, "scheme");
  const auto source = json_field(first, "source");
  const auto rows = json_field(first, "rows");
  const auto cols = json_field(first, "cols");
  const auto cost = json_field(first, "cost");
  if (!scheme || !source || !rows || !cols || !cost) return std::nullopt;
  ServedSummary summary;
  summary.scheme = *scheme;
  summary.source = *source;
  try {
    summary.rows = std::stoll(*rows);
    summary.cols = std::stoll(*cols);
    summary.cost = std::stod(*cost);
  } catch (const std::exception&) {  // not numbers
    return std::nullopt;
  }
  return summary;
}

}  // namespace

std::uint64_t factor_digest(const linalg::TiledMatrix& factored,
                            bool lower_only) {
  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a 64 offset basis
  const std::int64_t n = factored.dim();
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j = 0; j < (lower_only ? i + 1 : n); ++j) {
      const auto bits = std::bit_cast<std::uint64_t>(factored.at(i, j));
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (bits >> (8 * byte)) & 0xffU;
        hash *= 1099511628211ULL;  // FNV-1a 64 prime
      }
    }
  return hash;
}

Failure factor_matches_reference(std::uint64_t digest,
                                 std::uint64_t reference) {
  if (digest == reference) return std::nullopt;
  return "factor digest " + hex(digest) +
         " differs from the sequential reference " + hex(reference);
}

std::int64_t gather_messages(const core::Distribution& distribution,
                             std::int64_t t, bool symmetric) {
  std::int64_t gather = 0;
  for (std::int64_t i = 0; i < t; ++i)
    for (std::int64_t j = 0; j < (symmetric ? i + 1 : t); ++j)
      if (distribution.owner(i, j) != 0) ++gather;
  return gather;
}

Failure counts_match_closed_form(const vmpi::RunReport& report,
                                 std::int64_t gather, std::int64_t predicted,
                                 std::int64_t tile_doubles) {
  const std::int64_t sent = report.total_messages() - gather;
  const std::int64_t consumed = report.total_messages_received() - gather;
  const std::int64_t doubles =
      report.total_doubles() - gather * tile_doubles;
  if (sent == predicted && consumed == predicted &&
      doubles == predicted * tile_doubles)
    return std::nullopt;
  return "message counts diverge from the closed form: sent " +
         std::to_string(sent) + ", consumed " + std::to_string(consumed) +
         ", doubles " + std::to_string(doubles) + ", predicted " +
         std::to_string(predicted) + " tiles of " +
         std::to_string(tile_doubles);
}

Failure cli_run_ok(const ProcessResult& result, int processes) {
  if (Failure failure = exited_ok(result)) return failure;
  const std::vector<std::string> verdicts = lines_with(result.out, "verdict");
  const std::vector<std::string> counts =
      lines_with(result.out, "factorization +");
  if (static_cast<int>(verdicts.size()) != processes ||
      static_cast<int>(counts.size()) != processes)
    return "expected " + std::to_string(processes) +
           " verdict and count lines: " + tail(result.out);
  for (const std::string& line : verdicts) {
    char verdict[32] = {};
    if (std::sscanf(line.c_str(), " verdict %31s", verdict) != 1 ||
        std::string(verdict) != "ok")
      return "verdict not ok: " + line;
  }
  for (const std::string& line : counts) {
    long long sent = 0;
    long long gather = 0;
    long long closed = 0;
    if (std::sscanf(line.c_str(),
                    " messages %lld factorization + %lld gather (closed "
                    "form %lld)",
                    &sent, &gather, &closed) != 3 ||
        sent != closed)
      return "printed count differs from the closed form: " + line;
  }
  return std::nullopt;
}

Failure simulate_output_ok(const ProcessResult& result,
                           std::int64_t closed_form, double makespan_seconds) {
  if (Failure failure = exited_ok(result)) return failure;
  const std::vector<std::string> messages =
      lines_with(result.out, "  messages");
  const std::vector<std::string> times = lines_with(result.out, "  time ");
  long long printed = -1;
  char time_text[64] = {};
  if (messages.size() != 1 || times.size() != 1 ||
      std::sscanf(messages[0].c_str(), " messages %lld", &printed) != 1 ||
      std::sscanf(times[0].c_str(), " time %63s", time_text) != 1)
    return "unexpected simulate output: " + tail(result.out);
  if (printed != closed_form)
    return "simulate printed " + std::to_string(printed) +
           " messages, closed form " + std::to_string(closed_form);
  char expected[64];
  std::snprintf(expected, sizeof expected, "%.2f", makespan_seconds);
  if (std::string(time_text) != expected)
    return "simulate printed makespan " + std::string(time_text) +
           " s, in-process simulation gives " + expected + " s";
  return std::nullopt;
}

Failure cold_matches_table(const ProcessResult& result,
                           const core::Recommendation& expected) {
  if (Failure failure = exited_ok(result)) return failure;
  const std::optional<ServedSummary> served =
      parse_recommend_json(result.out);
  if (!served) return "no recommendation in: " + tail(result.out);
  // The CLI prints the cost with 6 decimals.
  if (served->source != "search" || served->scheme != expected.scheme ||
      served->rows != expected.pattern.rows() ||
      served->cols != expected.pattern.cols() ||
      std::fabs(served->cost - expected.cost) > 5e-7)
    return "cold answer " + served->scheme + " " +
           std::to_string(served->rows) + "x" + std::to_string(served->cols) +
           " cost " + json_number(served->cost) + " from " + served->source +
           " differs from the winners table's " + expected.scheme + " " +
           std::to_string(expected.pattern.rows()) + "x" +
           std::to_string(expected.pattern.cols()) + " cost " +
           json_number(expected.cost);
  return std::nullopt;
}

Failure precompute_rows_match(const store::WinnersTable& swept,
                              const store::WinnersTable& shipped,
                              std::int64_t min_p, std::int64_t max_p) {
  for (std::int64_t P = min_p; P <= max_p; ++P) {
    const auto got = swept.find(P);
    const auto want = shipped.find(P);
    if (got.has_value() != want.has_value())
      return "P=" + std::to_string(P) + " is missing from one table";
    if (got && (got->r != want->r || got->seed != want->seed ||
                std::bit_cast<std::uint64_t>(got->cost) !=
                    std::bit_cast<std::uint64_t>(want->cost)))
      return "P=" + std::to_string(P) + " swept (r=" +
             std::to_string(got->r) + ", seed " + std::to_string(got->seed) +
             ", cost " + json_number(got->cost) + ") but shipped (r=" +
             std::to_string(want->r) + ", seed " + std::to_string(want->seed) +
             ", cost " + json_number(want->cost) + ")";
  }
  if (static_cast<std::int64_t>(swept.size()) > max_p - min_p + 1)
    return "swept table holds rows outside the window";
  return std::nullopt;
}

Failure warm_equals_cold(const serve::ServedRecommendation& warm,
                         const core::Recommendation& cold) {
  if (warm.source != serve::Source::kStore)
    return std::string("warm lookup served from ") +
           serve::source_name(warm.source) + ", not the store";
  if (warm.rec.scheme != cold.scheme || !(warm.rec.pattern == cold.pattern) ||
      std::bit_cast<std::uint64_t>(warm.rec.cost) !=
          std::bit_cast<std::uint64_t>(cold.cost))
    return "warm hit " + warm.rec.scheme + " cost " +
           json_number(warm.rec.cost) + " differs from the cold result " +
           cold.scheme + " cost " + json_number(cold.cost);
  return std::nullopt;
}

Failure repeats_exactly(const std::string& what, double first, double again) {
  if (std::bit_cast<std::uint64_t>(first) ==
      std::bit_cast<std::uint64_t>(again))
    return std::nullopt;
  return what + " did not repeat: " + json_number(first) + " then " +
         json_number(again);
}

}  // namespace anyblock::bench
