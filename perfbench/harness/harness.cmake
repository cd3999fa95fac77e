# Included by ../hook.cmake at the end of the repository's root
# CMakeLists.txt.
add_executable(perfbench_harness
  ${PERFBENCH_HARNESS_DIR}/main.cc
  ${PERFBENCH_HARNESS_DIR}/load.cc
  ${PERFBENCH_HARNESS_DIR}/proc.cc
  ${PERFBENCH_HARNESS_DIR}/replay.cc
  ${PERFBENCH_HARNESS_DIR}/spans.cc)
target_link_libraries(perfbench_harness PRIVATE divexp::divexp)
set_target_properties(perfbench_harness PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/perfbench_harness)
