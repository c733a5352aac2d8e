#include "qcow/byte_file.hpp"

#include <cstring>

namespace vmstorm::qcow {

Status MemFile::pread(Bytes offset, std::span<std::byte> out) const {
  if (offset + out.size() > data_.size()) {
    return out_of_range("MemFile read past EOF");
  }
  std::memcpy(out.data(), data_.data() + offset, out.size());
  return Status::ok();
}

Status MemFile::pwrite(Bytes offset, std::span<const std::byte> in) {
  if (offset + in.size() > data_.size()) data_.resize(offset + in.size());
  std::memcpy(data_.data() + offset, in.data(), in.size());
  return Status::ok();
}

Bytes DfsFile::size() const {
  auto info = fs_->stat(file_);
  return info.is_ok() ? info->size : 0;
}

Status DfsFile::pread(Bytes offset, std::span<std::byte> out) const {
  bytes_read_ += out.size();
  return fs_->read(file_, offset, out);
}

Status DfsFile::pwrite(Bytes offset, std::span<const std::byte> in) {
  return fs_->write(file_, offset, in);
}

}  // namespace vmstorm::qcow
