# Run one example and compare its whole stdout with a recorded file:
#   cmake -DEXE=<binary> -DEXPECTED=<file> -P check_output.cmake
# Fails when the example exits nonzero or prints anything else.
execute_process(COMMAND ${EXE} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
file(READ ${EXPECTED} want)
if(NOT out STREQUAL want)
    message(FATAL_ERROR "${EXE}: stdout differs from ${EXPECTED}; got:\n${out}")
endif()
