// Choosing and building a transport at program start.
//
// The CLI and benches share this: a TransportSpec comes from the
// environment (`anyblock launch` sets ANYBLOCK_* for its children) with
// command-line flags layered on top, and make_transport() turns it into a
// backend — nullptr meaning the in-process default.  launch_processes() is
// the single-host launcher behind `anyblock launch --procs N`: it forks K
// copies of this binary, wires them to one rendezvous directory, and
// reaps them.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "vmpi/transport.hpp"

namespace anyblock::net {

struct TransportSpec {
  std::string backend = "inproc";  ///< "inproc" or "socket"
  std::string rendezvous_dir;
  int process_index = 0;
  int process_count = 1;
};

/// Environment variables the launcher sets for its children.
inline constexpr const char* kEnvTransport = "ANYBLOCK_TRANSPORT";
inline constexpr const char* kEnvRendezvous = "ANYBLOCK_RENDEZVOUS";
inline constexpr const char* kEnvProcess = "ANYBLOCK_PROC";
inline constexpr const char* kEnvProcesses = "ANYBLOCK_PROCS";

/// Reads the ANYBLOCK_* variables; unset ones keep the defaults above.
TransportSpec spec_from_env();

/// Creates a fresh `anyblock-rdv-XXXXXX` rendezvous directory under
/// $TMPDIR (falling back to /tmp when unset or empty) and returns its
/// path.  Throws std::runtime_error when the directory cannot be made.
std::string make_rendezvous_dir();

/// Builds the backend for `spec`.  Returns null for "inproc" (vmpi's
/// zero-overhead thread path needs no transport object).  Throws
/// std::invalid_argument for an unknown backend or for "socket" without a
/// rendezvous directory, with a hint to use `anyblock launch`.
std::unique_ptr<vmpi::Transport> make_transport(const TransportSpec& spec,
                                                int world_size);

/// Forks `process_count` copies of /proc/self/exe running `child_args`
/// (argv without the program name), each with ANYBLOCK_* set to the socket
/// backend and its slot in a fresh (or given) rendezvous directory.
/// Returns the first non-zero child exit status, else 0.
int launch_processes(int process_count, const std::vector<std::string>& child_args,
                     std::string rendezvous_dir = {});

}  // namespace anyblock::net
