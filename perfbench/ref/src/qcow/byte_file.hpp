// Random-access byte file abstraction the qcow image format is written
// against: an in-memory implementation for tests/examples, and an adapter
// over dfs::StripedFs so backing images can live on the distributed FS.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "dfs/striped_fs.hpp"

namespace vmstorm::qcow {

class ByteFile {
 public:
  virtual ~ByteFile() = default;
  virtual Bytes size() const = 0;
  /// Reads exactly out.size() bytes; fails past EOF.
  virtual Status pread(Bytes offset, std::span<std::byte> out) const = 0;
  /// Writes, growing the file as needed.
  virtual Status pwrite(Bytes offset, std::span<const std::byte> in) = 0;
};

class MemFile final : public ByteFile {
 public:
  MemFile() = default;
  explicit MemFile(std::vector<std::byte> data) : data_(std::move(data)) {}

  Bytes size() const override { return data_.size(); }
  Status pread(Bytes offset, std::span<std::byte> out) const override;
  Status pwrite(Bytes offset, std::span<const std::byte> in) override;

  const std::vector<std::byte>& data() const { return data_; }

 private:
  std::vector<std::byte> data_;
};

/// Adapter presenting one StripedFs file as a ByteFile (read-mostly; used
/// for raw backing images stored on the distributed FS).
class DfsFile final : public ByteFile {
 public:
  DfsFile(dfs::StripedFs& fs, dfs::FileId file) : fs_(&fs), file_(file) {}

  Bytes size() const override;
  Status pread(Bytes offset, std::span<std::byte> out) const override;
  Status pwrite(Bytes offset, std::span<const std::byte> in) override;

  /// Bytes fetched from the backing store so far (traffic accounting).
  Bytes bytes_read() const { return bytes_read_; }

 private:
  dfs::StripedFs* fs_;
  dfs::FileId file_;
  mutable Bytes bytes_read_ = 0;
};

}  // namespace vmstorm::qcow
