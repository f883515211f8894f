# Run one binary and fail unless its stdout equals a committed file byte for
# byte.
#   cmake -DBIN=<binary> -DEXPECTED=<committed stdout> -DOUT=<fresh stdout>
#         -P compare_stdout.cmake
execute_process(COMMAND ${BIN} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${EXPECTED}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "stdout of ${BIN} differs from ${EXPECTED}; "
                      "the fresh run is in ${OUT}")
endif()
