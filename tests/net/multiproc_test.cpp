// True multi-process integration: spawns the real `anyblock` binary (path
// injected by CMake as ANYBLOCK_CLI_PATH) and drives `anyblock launch`
// meshes of 2-3 OS processes.  Every `run` child verifies itself — factor
// bit-identical to the sequential reference, global message counts equal
// to the Eq. 1/Eq. 2 closed forms, --crosscheck against the in-process
// backend — and the launcher propagates the worst child exit code, so a
// zero exit here certifies the whole mesh.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>

namespace anyblock::net {
namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;
};

CliResult run_cli(const std::string& args) {
  const std::string command = std::string(ANYBLOCK_CLI_PATH) + " " + args +
                              " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return {};
  CliResult result;
  char chunk[4096];
  while (std::fgets(chunk, sizeof chunk, pipe) != nullptr)
    result.output += chunk;
  const int status = pclose(pipe);
  result.exit_code = status < 0 ? status : WEXITSTATUS(status);
  return result;
}

TEST(Multiproc, LuG2dbc23AcrossTwoProcesses) {
  const CliResult result = run_cli(
      "launch --procs 2 -- run --kernel lu --nodes 23 --tiles 12 "
      "--crosscheck");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("bit-identical"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("FAILED"), std::string::npos) << result.output;
}

TEST(Multiproc, CholeskyGcrm31AcrossThreeProcesses) {
  const CliResult result = run_cli(
      "launch --procs 3 -- run --kernel cholesky --nodes 31 --tiles 10 "
      "--crosscheck");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("GCR&M"), std::string::npos) << result.output;
  EXPECT_EQ(result.output.find("FAILED"), std::string::npos) << result.output;
}

TEST(Multiproc, ChaosCellSurvivesRealProcessBoundary) {
  // 5% drops + duplicates + delays injected independently in both
  // processes from one seeded plan; the run must stay bit-identical with
  // closed-form counts — the fault layer rides above the socket seam.
  const CliResult result = run_cli(
      "launch --procs 2 -- run --kernel lu --nodes 23 --tiles 12 "
      "--faults drop=0.05,dup=0.01,delay=0.01,delay-ms=2,timeout-ms=25 "
      "--crosscheck");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("retries"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("FAILED"), std::string::npos) << result.output;
}

TEST(Multiproc, TreeCollectiveAcrossTwoProcesses) {
  const CliResult result = run_cli(
      "launch --procs 2 -- run --kernel cholesky --nodes 31 --tiles 10 "
      "--collective tree");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_EQ(result.output.find("FAILED"), std::string::npos) << result.output;
}

TEST(Multiproc, SocketWithoutRendezvousFailsWithHint) {
  // Asking for the socket backend outside a launch must fail fast with a
  // message that names the fix — except the 1-process degenerate mesh,
  // which needs no rendezvous at all.
  const CliResult direct =
      run_cli("run --kernel lu --nodes 23 --tiles 8 --transport socket");
  EXPECT_EQ(direct.exit_code, 0)
      << "socket with process_count 1 degenerates to a mesh of one\n"
      << direct.output;
  setenv("ANYBLOCK_PROCS", "2", 1);
  setenv("ANYBLOCK_PROC", "0", 1);
  const CliResult missing =
      run_cli("run --kernel lu --nodes 23 --tiles 8 --transport socket");
  unsetenv("ANYBLOCK_PROCS");
  unsetenv("ANYBLOCK_PROC");
  EXPECT_NE(missing.exit_code, 0) << missing.output;
  EXPECT_NE(missing.output.find("rendezvous"), std::string::npos)
      << missing.output;
  EXPECT_NE(missing.output.find("anyblock launch"), std::string::npos)
      << missing.output;
}

TEST(Multiproc, LaunchWithoutChildCommandFailsWithUsage) {
  const CliResult result = run_cli("launch --procs 2");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("missing child command"), std::string::npos)
      << result.output;
}

TEST(Multiproc, LaunchRejectsRanksFlag) {
  // --procs is the one way to size a mesh; --ranks is not an alias.
  const CliResult result =
      run_cli("launch --ranks 2 -- run --kernel lu --nodes 23 --tiles 8");
  EXPECT_NE(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("--ranks"), std::string::npos)
      << result.output;
}

}  // namespace
}  // namespace anyblock::net
