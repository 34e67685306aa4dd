// Drives the real `anyblock` binary (path injected by CMake as
// ANYBLOCK_CLI_PATH) for the CLI contract tests: runs one command line and
// captures its exit code and its stdout and stderr together.
#pragma once

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace anyblock::testing_cli {

struct CliResult {
  int exit_code = -1;
  std::string output;
};

inline CliResult run_cli(const std::string& args) {
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

}  // namespace anyblock::testing_cli
