// resource.hpp is header-only today; this TU anchors the library and keeps
// a build target per module.
#include "sim/resource.hpp"
