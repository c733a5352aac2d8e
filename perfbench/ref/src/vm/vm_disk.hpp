// VmDisk: what the hypervisor hands the guest — adapters binding the boot
// player to each of the three §5.2 deployment strategies.
#pragma once

#include "common/rng.hpp"
#include "common/units.hpp"
#include "mirror/sim_disk.hpp"
#include "qcow/sim_image.hpp"
#include "sim/task.hpp"
#include "storage/disk.hpp"

namespace vmstorm::vm {

class VmDisk {
 public:
  virtual ~VmDisk() = default;
  virtual sim::Task<void> read(Bytes offset, Bytes length) = 0;
  virtual sim::Task<void> write(Bytes offset, Bytes length) = 0;
};

/// Our approach: the mirroring module over the BlobSeer-style store.
class MirrorVmDisk final : public VmDisk {
 public:
  explicit MirrorVmDisk(mirror::SimVirtualDisk& disk) : disk_(&disk) {}
  sim::Task<void> read(Bytes offset, Bytes length) override {
    return disk_->read(offset, length);
  }
  sim::Task<void> write(Bytes offset, Bytes length) override {
    return disk_->write(offset, length);
  }

 private:
  mirror::SimVirtualDisk* disk_;
};

/// qcow2-over-PVFS baseline.
class QcowVmDisk final : public VmDisk {
 public:
  explicit QcowVmDisk(qcow::SimImage& image) : image_(&image) {}
  sim::Task<void> read(Bytes offset, Bytes length) override {
    return image_->read(offset, length);
  }
  sim::Task<void> write(Bytes offset, Bytes length) override {
    return image_->write(offset, length);
  }

 private:
  qcow::SimImage* image_;
};

/// Pre-propagation baseline: the raw image fully present on the local
/// disk. First touch of a block pays platter time; re-reads hit the page
/// cache. Writes are write-back.
class LocalVmDisk final : public VmDisk {
 public:
  LocalVmDisk(storage::Disk& disk, std::uint64_t instance_salt,
              Bytes cache_granularity = 256_KiB)
      : disk_(&disk), salt_(instance_salt), gran_(cache_granularity) {}

  sim::Task<void> read(Bytes offset, Bytes length) override;
  sim::Task<void> write(Bytes offset, Bytes length) override;

 private:
  std::uint64_t key(Bytes block) const {
    return mix64((salt_ << 22) ^ 0x10ca1d15cull ^ block);
  }
  storage::Disk* disk_;
  std::uint64_t salt_;
  Bytes gran_;
};

}  // namespace vmstorm::vm
