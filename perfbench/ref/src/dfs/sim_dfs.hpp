// SimDfs: the striped file system deployed on the simulated cluster.
//
// Server i lives on network node server_nodes[i] with disk server_disks[i]
// (in the paper's setup, PVFS data servers run on the same compute nodes
// that host the VMs). Reads/writes are split into stripe pieces served in
// parallel by their servers, each piece paying request/response transfers
// and server disk time. PVFS does no client-side caching; writes go to the
// server disk write-back cache like any local write.
#pragma once

#include <memory>
#include <vector>

#include "dfs/striped_fs.hpp"
#include "net/network.hpp"
#include "sim/sync.hpp"
#include "storage/disk.hpp"

namespace vmstorm::dfs {

struct SimDfsConfig {
  Bytes request_bytes = 256;
  /// Fixed per-request server-side processing cost. PVFS is engineered for
  /// large transfers; small operations pay a millisecond-scale per-op cost
  /// (request decode, BMI/Trove dispatch, kernel round trips on 2011-era
  /// hardware). This serialized server resource is what saturates under a
  /// boot storm of small backing-file reads — the §5.2 effect that makes
  /// qcow2-over-PVFS degrade while chunk-prefetching clients stay flat.
  sim::SimTime server_request_cpu = sim::from_millis(1.5);
};

class SimDfs {
 public:
  SimDfs(sim::Engine& engine, net::Network& network, StripedFs& fs,
         std::vector<net::NodeId> server_nodes,
         std::vector<storage::Disk*> server_disks,
         SimDfsConfig cfg = SimDfsConfig{});

  StripedFs& fs() { return *fs_; }

  /// Reads [offset, offset+length) of `file`: parallel per-stripe-piece
  /// round trips. Holes cost a metadata lookup only.
  sim::Task<void> read(net::NodeId client, FileId file, Bytes offset,
                       Bytes length);

  /// Writes: parallel pushes, acknowledged when on the platter (PVFS has
  /// no server write-back cache — the §5.3 contrast with BlobSeer's
  /// asynchronous writes). Data content must be recorded separately via
  /// fs() by callers that care; cost and content are decoupled here.
  sim::Task<void> write(net::NodeId client, FileId file, Bytes offset,
                        Bytes length);

 private:
  sim::Task<void> read_piece(net::NodeId client, FileId file, StripePiece piece);
  sim::Task<void> write_piece(net::NodeId client, FileId file, StripePiece piece);
  std::uint64_t stripe_cache_key(FileId file, std::uint64_t stripe_index) const;

  sim::Engine* engine_;
  net::Network* network_;
  StripedFs* fs_;
  std::vector<net::NodeId> server_nodes_;
  std::vector<storage::Disk*> server_disks_;
  /// One serialized CPU per server charging server_request_cpu per op.
  std::vector<std::unique_ptr<sim::FifoServer>> server_cpus_;
  SimDfsConfig cfg_;
};

}  // namespace vmstorm::dfs
