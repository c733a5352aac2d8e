// Block-device abstraction imgfs is written against, with adapters for the
// mirroring module's VirtualDisk (the "VM's view" of the image), a plain
// POSIX file (the Fig. 6/7 local baseline) and memory (tests).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "mirror/virtual_disk.hpp"

namespace vmstorm::imgfs {

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;
  virtual Bytes size() const = 0;
  virtual Status pread(Bytes offset, std::span<std::byte> out) = 0;
  virtual Status pwrite(Bytes offset, std::span<const std::byte> in) = 0;
};

/// In-memory device (tests).
class MemDevice final : public BlockDevice {
 public:
  explicit MemDevice(Bytes size) : data_(size) {}
  Bytes size() const override { return data_.size(); }
  Status pread(Bytes offset, std::span<std::byte> out) override;
  Status pwrite(Bytes offset, std::span<const std::byte> in) override;

 private:
  std::vector<std::byte> data_;
};

/// The mirroring module as a device: the guest filesystem running on the
/// lazily-mirrored image.
class MirrorDevice final : public BlockDevice {
 public:
  explicit MirrorDevice(mirror::VirtualDisk& disk) : disk_(&disk) {}
  Bytes size() const override { return disk_->size(); }
  Status pread(Bytes offset, std::span<std::byte> out) override {
    return disk_->pread(offset, out);
  }
  Status pwrite(Bytes offset, std::span<const std::byte> in) override {
    return disk_->pwrite(offset, in);
  }

 private:
  mirror::VirtualDisk* disk_;
};

/// Wraps a device and charges a fixed real-time latency per operation.
/// Used to emulate the FUSE user/kernel context-switch overhead the
/// paper's mirroring module pays but a linked-in library does not
/// (Fig. 7's RndSeek/DelF penalty).
class LatencyDevice final : public BlockDevice {
 public:
  LatencyDevice(BlockDevice& inner, std::uint64_t per_op_nanos)
      : inner_(&inner), per_op_nanos_(per_op_nanos) {}
  Bytes size() const override { return inner_->size(); }
  Status pread(Bytes offset, std::span<std::byte> out) override {
    spin();
    return inner_->pread(offset, out);
  }
  Status pwrite(Bytes offset, std::span<const std::byte> in) override {
    spin();
    return inner_->pwrite(offset, in);
  }

 private:
  void spin() const;
  BlockDevice* inner_;
  std::uint64_t per_op_nanos_;
};

/// A plain local file accessed with pread/pwrite syscalls — the
/// "hypervisor has direct access to a raw local image" baseline of §5.4.
class PosixFileDevice final : public BlockDevice {
 public:
  static Result<std::unique_ptr<PosixFileDevice>> open(const std::string& path,
                                                       Bytes size);
  ~PosixFileDevice() override;
  Bytes size() const override { return size_; }
  Status pread(Bytes offset, std::span<std::byte> out) override;
  Status pwrite(Bytes offset, std::span<const std::byte> in) override;

 private:
  PosixFileDevice(int fd, Bytes size) : fd_(fd), size_(size) {}
  int fd_ = -1;
  Bytes size_ = 0;
};

}  // namespace vmstorm::imgfs
