# Runs EXE with the single argument ARG and requires the fatal() contract
# of the tools: exit code 1 and EXPECT (a regex) in the combined output.
#
#   cmake -DEXE=<binary> -DARG=<arg> -DEXPECT=<regex> -P expect_fatal.cmake
execute_process(COMMAND "${EXE}" "${ARG}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${EXE} ${ARG}: exit ${rc}, expected 1\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
    message(FATAL_ERROR "${EXE} ${ARG}: output lacks '${EXPECT}'\n${out}${err}")
endif()
