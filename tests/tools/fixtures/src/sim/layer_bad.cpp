// Fixture: layer-DAG violations — sim reaching above its station.
#include "common/log.hpp"
#include "cloud/cloud.hpp"   // layer-dag: sim may not include cloud
#include "storage/disk.hpp"  // layer-dag: sim may not include storage
#include "engine.hpp"        // unqualified-include

namespace fixture {
inline int noop() { return 0; }
}  // namespace fixture
