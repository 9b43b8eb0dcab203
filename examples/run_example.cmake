# Runs one example program: it must exit 0 and print EXPECTED, a literal
# part of its standard output.
#   cmake -DEXAMPLE=<program> -DEXPECTED=<text> -P run_example.cmake
execute_process(COMMAND ${EXAMPLE} RESULT_VARIABLE status
                OUTPUT_VARIABLE output ERROR_VARIABLE errors)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited ${status}:\n${output}${errors}")
endif()
string(FIND "${output}" "${EXPECTED}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${EXAMPLE} printed no '${EXPECTED}':\n${output}")
endif()
