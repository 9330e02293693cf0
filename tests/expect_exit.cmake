# Run a command and require an exact exit status and an output pattern —
# what ctest's own pass/fail properties cannot express together.
#
#   cmake -DEXPECT_EXIT=1 "-DEXPECT_OUTPUT=<regex>" -P expect_exit.cmake \
#         -- <command> [args...]
#
# EXPECT_OUTPUT is a CMake regex matched against stdout + stderr as one
# string ('.' also matches a newline, ^ and $ anchor the whole output).
# The command's output is echoed so a failing ctest shows it.
set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect_exit.cmake: no command after '--'")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
message("${out}")
if(NOT "${rc}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit status ${rc}, expected ${EXPECT_EXIT}")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT out MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}'")
endif()
