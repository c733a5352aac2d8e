# vmlint integration: one ctest per rule, the framework self-test, and the
# header self-containment build target. Included from the top-level
# CMakeLists.txt after all src/ targets exist.

# ---- Per-rule lints + framework self-test (need python3) --------------------
find_program(VMSTORM_PYTHON3 python3)
if(VMSTORM_PYTHON3)
  set(VMSTORM_VMLINT_RULES
      determinism coro-capture layer-dag status-discipline
      lock-across-await span-coverage determinism-taint
      env-read-discipline)
  foreach(_rule IN LISTS VMSTORM_VMLINT_RULES)
    string(REPLACE "-" "_" _rule_id "${_rule}")
    add_test(NAME vmlint_${_rule_id}
             COMMAND ${VMSTORM_PYTHON3}
                     ${CMAKE_SOURCE_DIR}/tools/vmlint/vmlint.py
                     --root ${CMAKE_SOURCE_DIR} --rules ${_rule} --strict)
  endforeach()
  add_test(NAME vmlint_selftest
           COMMAND ${VMSTORM_PYTHON3}
                   ${CMAKE_SOURCE_DIR}/tests/tools/test_vmlint.py)
else()
  message(STATUS "python3 not found: vmlint tests not registered")
endif()

# ---- Header self-containment ------------------------------------------------
# One generated TU per src/**/*.hpp that includes the header twice: compiling
# the target proves every header is self-contained, guarded (#pragma once)
# and that each of its includes resolves. The TUs are only regenerated when
# their content changes, so no-op reconfigures do not trigger rebuilds.
file(GLOB_RECURSE _vmlint_headers RELATIVE ${CMAKE_SOURCE_DIR}/src
     CONFIGURE_DEPENDS ${CMAKE_SOURCE_DIR}/src/*.hpp)
set(_vmlint_hdr_tus "")
foreach(_hdr IN LISTS _vmlint_headers)
  string(REPLACE "/" "__" _tu_base "${_hdr}")
  set(_tu "${CMAKE_BINARY_DIR}/vmlint_header_check/${_tu_base}.cpp")
  string(CONCAT _content
         "// Generated by tools/vmlint/vmlint.cmake — do not edit.\n"
         "#include \"${_hdr}\"\n"
         "#include \"${_hdr}\"  // reinclusion must be a no-op\n")
  set(_old "")
  if(EXISTS ${_tu})
    file(READ ${_tu} _old)
  endif()
  if(NOT _old STREQUAL _content)
    file(WRITE ${_tu} "${_content}")
  endif()
  list(APPEND _vmlint_hdr_tus ${_tu})
endforeach()
add_library(vmstorm_header_check OBJECT EXCLUDE_FROM_ALL ${_vmlint_hdr_tus})
target_link_libraries(vmstorm_header_check PRIVATE vmstorm_common)
# The TUs are independent, so the build uses every core; PROCESSORS tells
# `ctest -j` to reserve them, so the check is not oversubscribed. The lock
# keeps it from running beside the compile-fail builds in the same tree.
cmake_host_system_information(RESULT _vmlint_jobs
                              QUERY NUMBER_OF_LOGICAL_CORES)
add_test(NAME vmlint_header_selfcontained
         COMMAND ${CMAKE_COMMAND} --build ${CMAKE_BINARY_DIR}
                 --target vmstorm_header_check --config $<CONFIG>
                 --parallel ${_vmlint_jobs})
set_tests_properties(vmlint_header_selfcontained
                     PROPERTIES PROCESSORS ${_vmlint_jobs}
                                RESOURCE_LOCK vmstorm_build_tree)
