// The simulate command's option contract, driven through the real
// `anyblock` binary (path injected by CMake as ANYBLOCK_CLI_PATH).
//
// The simulator runs one engine: the implicit task-DAG generator on the
// calendar event queue.  --workload-mode survives with the values auto and
// implicit, which both name that engine; the materialized graph and the
// binary-heap queue are test oracles now, so asking for them is an error
// the user hears about rather than a request silently ignored.
#include <gtest/gtest.h>

#include <string>

#include "integration/run_cli.hpp"

namespace anyblock {
namespace {

using testing_cli::CliResult;
using testing_cli::run_cli;

TEST(SimulateCli, RejectsTheRemovedQueueOption) {
  const CliResult result =
      run_cli("simulate --kernel lu --nodes 4 --size 4000 --queue heap");
  EXPECT_NE(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("--queue"), std::string::npos)
      << result.output;
}

TEST(SimulateCli, RejectsTheMaterializedWorkloadMode) {
  const CliResult result = run_cli(
      "simulate --kernel lu --nodes 4 --size 4000 "
      "--workload-mode materialized");
  EXPECT_NE(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("auto|implicit"), std::string::npos)
      << result.output;
}

TEST(SimulateCli, AutoRunsTheImplicitGenerator) {
  const CliResult result = run_cli(
      "simulate --kernel lu --nodes 23 --size 20000 --workload-mode auto");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("workload      implicit ("), std::string::npos)
      << result.output;
}

}  // namespace
}  // namespace anyblock
