// The --memory-factor CLI contract, driven through the real `anyblock`
// binary (path injected by CMake as ANYBLOCK_CLI_PATH).
//
// The replication factor must tile the machine exactly: c < 1, c > P, or
// c not dividing P are configuration errors the user should hear about
// immediately, not schedules to silently round.  Every subcommand that
// accepts the flag — simulate, run, recommend — must reject them with a
// nonzero exit and a message naming the flag, and must keep working for
// valid factors.
#include <gtest/gtest.h>

#include <string>

#include "integration/run_cli.hpp"

namespace anyblock {
namespace {

using testing_cli::CliResult;
using testing_cli::run_cli;

void expect_rejected(const std::string& args) {
  const CliResult result = run_cli(args);
  EXPECT_NE(result.exit_code, 0) << args << "\n" << result.output;
  EXPECT_NE(result.output.find("--memory-factor"), std::string::npos)
      << args << "\n" << result.output;
}

TEST(MemoryFactorCli, SimulateRejectsNonDividingFactor) {
  expect_rejected("simulate --kernel lu --nodes 16 --memory-factor 3 "
                  "--size 64 --tile 4");
}

TEST(MemoryFactorCli, SimulateRejectsFactorAboveNodeCount) {
  expect_rejected("simulate --kernel lu --nodes 16 --memory-factor 32 "
                  "--size 64 --tile 4");
}

TEST(MemoryFactorCli, SimulateRejectsNonPositiveFactor) {
  expect_rejected("simulate --kernel lu --nodes 16 --memory-factor 0 "
                  "--size 64 --tile 4");
  expect_rejected("simulate --kernel lu --nodes 16 --memory-factor -2 "
                  "--size 64 --tile 4");
}

TEST(MemoryFactorCli, RunRejectsNonDividingFactor) {
  expect_rejected("run --kernel lu --nodes 12 --memory-factor 5 --tiles 6");
}

TEST(MemoryFactorCli, RecommendRejectsOddNodeCountAtTwoLayers) {
  expect_rejected("recommend --nodes 23 --memory-factor 2");
}

TEST(MemoryFactorCli, RecommendRejectsAnyBadBatchEntry) {
  // One divisible entry does not excuse the other: the whole batch fails.
  expect_rejected("recommend --batch 46,23 --memory-factor 2");
}

TEST(MemoryFactorCli, SimulateAcceptsAValidFactor) {
  const CliResult result = run_cli(
      "simulate --kernel lu --nodes 16 --memory-factor 2 --size 192 "
      "--tile 4 --seeds 5");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("c=2"), std::string::npos) << result.output;
}

TEST(MemoryFactorCli, RunAcceptsAValidFactorAndVerifiesItself) {
  const CliResult result = run_cli(
      "run --kernel lu --nodes 8 --memory-factor 2 --tiles 8 --tile 4 "
      "--crosscheck");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("verdict     ok"), std::string::npos)
      << result.output;
}

TEST(MemoryFactorCli, RecommendReportsTheStackingInBothFormats) {
  const CliResult text =
      run_cli("recommend --nodes 46 --memory-factor 2 --seeds 5");
  EXPECT_EQ(text.exit_code, 0) << text.output;
  EXPECT_NE(text.output.find("2 layers x 23-node base"), std::string::npos)
      << text.output;
  const CliResult json = run_cli(
      "recommend --nodes 46 --memory-factor 2 --seeds 5 --format json");
  EXPECT_EQ(json.exit_code, 0) << json.output;
  EXPECT_NE(json.output.find("\"memory_factor\":2"), std::string::npos)
      << json.output;
  EXPECT_NE(json.output.find("\"base_nodes\":23"), std::string::npos)
      << json.output;
  // LU's G-2DBC base is built in closed form, never searched.
  const CliResult lu =
      run_cli("recommend --nodes 23 --kernel lu --format json");
  EXPECT_EQ(lu.exit_code, 0) << lu.output;
  EXPECT_NE(lu.output.find("\"source\":\"closed-form\""), std::string::npos)
      << lu.output;
}

}  // namespace
}  // namespace anyblock
