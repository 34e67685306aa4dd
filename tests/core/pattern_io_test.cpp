#include "core/pattern_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/block_cyclic.hpp"
#include "core/g2dbc.hpp"
#include "core/sbc.hpp"

namespace anyblock::core {
namespace {

TEST(PatternIo, RenderCompletePattern) {
  const Pattern p = make_2dbc(2, 3);
  EXPECT_EQ(render_pattern(p), "0 1 2\n3 4 5\n");
}

TEST(PatternIo, RenderFreeCellsAsDots) {
  Pattern p(2, 2, 2);
  p.set(0, 1, 0);
  p.set(1, 0, 1);
  EXPECT_EQ(render_pattern(p), ". 0\n1 .\n");
}

TEST(PatternIo, RenderAlignsWideIds) {
  const Pattern p = make_2dbc(1, 12);
  const std::string text = render_pattern(p);
  EXPECT_NE(text.find(" 0"), std::string::npos);
  EXPECT_NE(text.find("11"), std::string::npos);
}

TEST(PatternIo, SerializeParseRoundTrip) {
  for (const Pattern& p :
       {make_2dbc(3, 4), make_g2dbc(23), make_sbc(21), make_sbc(32)}) {
    const std::string text = serialize_pattern(p);
    const auto parsed = parse_pattern_string(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
}

TEST(PatternIo, ParseRejectsMalformed) {
  EXPECT_FALSE(parse_pattern_string("nonsense").has_value());
  EXPECT_FALSE(parse_pattern_string("pattern 2 2 2\n0 1\n").has_value());
  EXPECT_FALSE(parse_pattern_string("pattern 2 2 2\n0 1 5 0\n").has_value());
  EXPECT_FALSE(parse_pattern_string("pattern 0 2 2\n").has_value());
}

TEST(PatternIo, ParseReportsWhatWasMalformed) {
  const auto detail_of = [](const std::string& text) {
    std::istringstream in(text);
    std::string error;
    EXPECT_FALSE(parse_pattern(in, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
    return error;
  };
  EXPECT_NE(detail_of("").find("missing"), std::string::npos);
  EXPECT_NE(detail_of("nonsense 2 2 2\n0 1 0 1\n").find("header"),
            std::string::npos);
  EXPECT_NE(detail_of("pattern 2 banana 2\n").find("dimensions"),
            std::string::npos);
  EXPECT_NE(detail_of("pattern 2 2 2\n0 1 0\n").find("truncated"),
            std::string::npos);
  EXPECT_NE(detail_of("pattern 2 2 2\n0 1 0 7\n").find("node id"),
            std::string::npos);
}

TEST(PatternIo, ParseRejectsImplausibleGeometry) {
  // A giant header must fail cleanly, not attempt a terabyte allocation
  // or overflow rows*cols.
  EXPECT_FALSE(parse_pattern_string("pattern 99999999999 9 9\n").has_value());
  EXPECT_FALSE(
      parse_pattern_string("pattern 9999999 9999999 4\n").has_value());
  EXPECT_FALSE(parse_pattern_string("pattern -3 2 2\n").has_value());
  // More nodes than cells can never label a complete pattern.
  EXPECT_FALSE(parse_pattern_string("pattern 2 2 9\n0 1 2 3\n").has_value());
}

TEST(PatternIo, ParseSurvivesFuzzedMutations) {
  // Deterministic fuzz-ish sweep: truncations and single-byte corruptions
  // of a valid record must either parse to a valid pattern or fail with a
  // non-empty diagnostic — never crash or return a malformed Pattern.
  // (A successful parse of a mutated record may still be an *invalid*
  // pattern — the parser guarantees syntax and per-cell range, and the
  // caller runs Pattern::validate(); here we only require sane geometry.)
  const auto check = [](const std::string& text, const char* what) {
    std::istringstream in(text);
    std::string error;
    const auto parsed = parse_pattern(in, &error);
    if (parsed.has_value()) {
      EXPECT_GT(parsed->rows(), 0) << what;
      EXPECT_LE(parsed->rows() * parsed->cols(), kMaxPatternCells) << what;
    } else {
      EXPECT_FALSE(error.empty()) << what;
    }
  };
  const std::string good = serialize_pattern(make_g2dbc(10));
  for (std::size_t cut = 0; cut < good.size(); ++cut)
    check(good.substr(0, cut), "truncation");
  for (const char garbage : {'x', '-', '\0', '9'}) {
    for (std::size_t at = 0; at < good.size(); at += 3) {
      std::string mutated = good;
      mutated[at] = garbage;
      check(mutated, "mutation");
    }
  }
}

TEST(PatternIo, LoadPatternFileThrowsWithPath) {
  const std::string missing = ::testing::TempDir() + "/does_not_exist.pat";
  try {
    (void)load_pattern_file(missing);
    FAIL() << "expected PatternIoError";
  } catch (const PatternIoError& e) {
    EXPECT_EQ(e.path(), missing);
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos);
  }

  const std::string corrupt = ::testing::TempDir() + "/corrupt.pat";
  {
    std::ofstream out(corrupt);
    out << "pattern 2 2 2\n0 1\n";  // truncated cells
  }
  try {
    (void)load_pattern_file(corrupt);
    FAIL() << "expected PatternIoError";
  } catch (const PatternIoError& e) {
    EXPECT_EQ(e.path(), corrupt);
    EXPECT_FALSE(e.detail().empty());
  }
  std::remove(corrupt.c_str());
}

}  // namespace
}  // namespace anyblock::core
