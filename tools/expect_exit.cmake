# Runs a command and passes only if it exits with status EXPECT_STATUS
# exactly and, when given, its stdout matches EXPECT_OUTPUT and its stderr
# matches EXPECT_ERROR (both regexes).  A signal is a failure: WILL_FAIL
# would count a crash as the expected nonzero exit, and
# PASS_REGULAR_EXPRESSION ignores the exit status.
#
#   cmake -DEXPECT_STATUS=2 [-DEXPECT_OUTPUT=<regex>] [-DEXPECT_ERROR=<regex>]
#         -P expect_exit.cmake -- <command> [args...]
if(NOT DEFINED EXPECT_STATUS)
  message(FATAL_ERROR "expect_exit.cmake: EXPECT_STATUS is not set")
endif()

set(cmd "")
set(in_command FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 0 ${last})
  if(in_command)
    # Keep semicolons (fault-plan separators) inside their argument.
    string(REPLACE ";" "\;" arg "${CMAKE_ARGV${i}}")
    list(APPEND cmd "${arg}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()

execute_process(COMMAND ${cmd}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
# A signal shows up as its name ("Segmentation fault"), never a number.
if(NOT status STREQUAL EXPECT_STATUS)
  message(FATAL_ERROR
          "exit status '${status}', expected '${EXPECT_STATUS}'")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT out MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}'")
endif()
if(DEFINED EXPECT_ERROR AND NOT err MATCHES "${EXPECT_ERROR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_ERROR}'")
endif()
