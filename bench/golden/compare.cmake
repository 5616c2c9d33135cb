# Runs BIN and compares its stdout with GOLDEN byte for byte. On a mismatch
# it writes the output to OUT and prints `diff -u GOLDEN OUT`.
#   cmake -DBIN=<bench> -DGOLDEN=<file> -DOUT=<file> -P compare.cmake
execute_process(COMMAND ${BIN} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  file(WRITE ${OUT} "${out}")
  execute_process(COMMAND diff -u ${GOLDEN} ${OUT})
  message(FATAL_ERROR "${BIN} output differs from ${GOLDEN}")
endif()
