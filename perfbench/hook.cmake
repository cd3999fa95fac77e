# Passed as CMAKE_PROJECT_INCLUDE when run.py configures the repository's
# own top-level CMakeLists.txt. CMake includes it right after the root
# project() call; the deferred include defines the harness target at the
# end of the root directory, so it builds with exactly the flags,
# definitions and library targets the repository defines for `divexp`.
include_guard(GLOBAL)
set(PERFBENCH_HARNESS_DIR "${CMAKE_CURRENT_LIST_DIR}/harness")
cmake_language(DEFER CALL include "${PERFBENCH_HARNESS_DIR}/harness.cmake")
