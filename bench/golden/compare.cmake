# Runs BIN and compares its stdout with GOLDEN byte for byte. A line that
# starts with `[host clock]` times the host, not the model, so it is dropped
# from the output first and never appears in GOLDEN. On a mismatch it
# writes the filtered output to OUT and prints `diff -u GOLDEN OUT`.
#   cmake -DBIN=<bench> -DGOLDEN=<file> -DOUT=<file> -P compare.cmake
execute_process(COMMAND ${BIN} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
# A leading newline lets one pattern anchor every line, the first included.
string(REGEX REPLACE "\n\\[host clock\\][^\n]*" "" out "\n${out}")
string(SUBSTRING "${out}" 1 -1 out)
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  file(WRITE ${OUT} "${out}")
  execute_process(COMMAND diff -u ${GOLDEN} ${OUT})
  message(FATAL_ERROR "${BIN} output differs from ${GOLDEN}")
endif()
