// The one sanctioned process-environment read.
//
// Environment variables are host-side *configuration*: two runs launched
// with the same environment see the same values, so an env-derived knob may
// legitimately shape a deterministic run (workload size, trace toggles,
// output directories). What must never happen is a raw std::getenv call
// scattered through the tree where nobody can audit which knobs exist —
// vmlint's `env-read-discipline` rule bans raw getenv everywhere except
// this shim's translation unit, and the taint analysis treats env_or() as
// the sanctioned sanitizer for host taint of env origin.
//
// Adding a knob: call common::env_or("VMSTORM_MY_KNOB") from wherever the
// knob is consumed, and document the variable in README.md. Do not call
// std::getenv directly; the lint gate will fail the build.
#pragma once

namespace vmstorm::common {

/// Returns the value of environment variable `name`, or `fallback`
/// (default nullptr) when unset. Never returns an empty-vs-null surprise:
/// an empty-string value is returned as-is.
const char* env_or(const char* name, const char* fallback = nullptr) noexcept;

}  // namespace vmstorm::common
