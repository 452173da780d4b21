# Runs EXE with the single argument ARG and requires exit code RC and
# EXPECT (a regex) in the combined output: RC 1 is the tools' fatal()
# contract, RC 0 their --help.
#
#   cmake -DEXE=<binary> -DARG=<arg> -DRC=<code> -DEXPECT=<regex>
#         -P expect_exit.cmake
execute_process(COMMAND "${EXE}" "${ARG}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL RC)
    message(FATAL_ERROR "${EXE} ${ARG}: exit ${rc}, expected ${RC}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
    message(FATAL_ERROR "${EXE} ${ARG}: output lacks '${EXPECT}'\n${out}${err}")
endif()
