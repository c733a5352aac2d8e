// Multicast-tree broadcast: the taktuk-equivalent used by the
// pre-propagation baseline (§5.2).
//
// Builds a k-ary multicast tree over [source, targets...] following the
// postal model (Bar-Noy & Kipnis [8]): interior nodes relay to their
// children. Two propagation disciplines are provided:
//
//  * kPipelined — data flows through the tree in chunk-sized messages;
//    a relay forwards each chunk as soon as it has it. Wall time
//    approaches one file transfer plus a depth-proportional ramp-up.
//  * kStoreAndForward — each hop receives the complete file before
//    forwarding (file-granularity staging). Wall time is proportional to
//    tree depth. This is the discipline that reproduces the paper's
//    measured taktuk times (see DESIGN.md/EXPERIMENTS.md: the published
//    Figure 4(b) prepropagation curve implies per-hop staging at an
//    ssh-bound effective rate rather than wire-speed streaming).
//
// Every receiving node also writes the image to its local disk, and the
// source reads it from its disk (the NFS server's), both potentially
// rate-limiting the pipeline.
#pragma once

#include <vector>

#include "common/units.hpp"
#include "net/network.hpp"
#include "sim/sync.hpp"
#include "storage/disk.hpp"

namespace vmstorm::bcast {

enum class Discipline { kPipelined, kStoreAndForward };

struct BroadcastConfig {
  Bytes chunk_size = 256_KiB;
  /// Tree arity (taktuk defaults to small arities; 2 balances source load
  /// against depth).
  std::size_t arity = 2;
  Discipline discipline = Discipline::kStoreAndForward;
  /// Effective per-hop application throughput. The paper's broadcast rode
  /// on ssh channels; single-stream ssh on 2011-era Xeons tops out well
  /// below wire speed. Calibrated so Fig. 4(b)'s prepropagation curve is
  /// reproduced (see EXPERIMENTS.md).
  BytesPerSecond hop_rate = mb_per_s(20.0);
};

struct BroadcastResult {
  double completion_seconds = 0;
  /// Completion time per target, indexed like `targets`.
  std::vector<double> per_target_seconds;
};

/// Broadcasts `total_bytes` from `source` to every node in `targets`.
/// `target_disks[i]` is target i's local disk (receives a full image copy);
/// `source_disk` is read once per child subtree stream.
sim::Task<void> broadcast(sim::Engine& engine, net::Network& network,
                          net::NodeId source, storage::Disk& source_disk,
                          std::vector<net::NodeId> targets,
                          std::vector<storage::Disk*> target_disks,
                          Bytes total_bytes, BroadcastConfig cfg,
                          BroadcastResult* result);

}  // namespace vmstorm::bcast
