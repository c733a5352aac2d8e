// vmstormctl: command-line manipulation of an on-disk vmstorm repository —
// the upload/download/clone/snapshot operations the paper's cloud client
// performs against the image store (§3.2 "the cloud client has direct
// access to the storage service and is allowed to upload and download
// images from it").
//
// The command core is a library function so tests can drive it; the
// `vmstormctl` binary is a thin wrapper.
//
// Commands:
//   init <repo> [--providers N] [--replication R] [--chunk SIZE] [--dedup]
//   ls <repo>
//   stat <repo> <blob>
//   upload <repo> <file>                 -> prints the new blob id
//   download <repo> <blob> <version> <file>
//   clone <repo> <blob> <version>        -> prints the new blob id
//   patch <repo> <blob> <offset> <file>  -> commits file content at offset,
//                                           prints the new version
//   critpath <trace.jsonl>               -> critical-path attribution tables
//                                           from a TRACE_*.jsonl artifact
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"

namespace vmstorm::apps {

/// Executes one vmstormctl command; returns its stdout text.
Result<std::string> run_repo_cli(const std::vector<std::string>& args);

/// "256K" / "4M" / "1G" / plain bytes -> byte count.
Result<Bytes> parse_size(const std::string& text);

/// Usage text for the binary.
std::string repo_cli_usage();

}  // namespace vmstorm::apps
