// Must not compile. Discards a vmstorm::Status returned through a
// reference and through a macro, the two shapes a name-based scan of the
// source misses. The ctest compile_fail_discarded_status passes only when
// building this file fails with an unused-result error.
#include "imgfs/filesystem.hpp"

#define SHRINK_TO_ZERO(fs, inode) (fs).truncate((inode), 0)

namespace vmstorm::compile_fail {

void discard_through_reference(imgfs::FileSystem& fs) {
  fs.truncate(1, 0);
}

void discard_through_macro(imgfs::FileSystem& fs) {
  SHRINK_TO_ZERO(fs, 1);
}

}  // namespace vmstorm::compile_fail
