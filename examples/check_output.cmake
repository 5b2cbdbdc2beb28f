# Run one example and compare its whole stdout with a recorded file:
#   cmake -DEXE=<binary> -DEXPECTED=<file> [-DWORKDIR=<dir>] -P check_output.cmake
# Fails when the example exits nonzero or prints anything else. With
# WORKDIR the binary runs in that directory, emptied first, so a bench
# binary starts from an empty ./acp_store and simulates every point.
if(DEFINED WORKDIR)
    file(REMOVE_RECURSE ${WORKDIR})
    file(MAKE_DIRECTORY ${WORKDIR})
else()
    set(WORKDIR .)
endif()
execute_process(COMMAND ${EXE} WORKING_DIRECTORY ${WORKDIR}
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
file(READ ${EXPECTED} want)
if(NOT out STREQUAL want)
    message(FATAL_ERROR "${EXE}: stdout differs from ${EXPECTED}; got:\n${out}")
endif()
