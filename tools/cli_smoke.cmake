# Drives the CLI end to end: generate -> info -> splitters -> partition ->
# sort -> select -> histogram, failing on any non-zero exit.
file(MAKE_DIRECTORY ${WORKDIR})
function(run)
  execute_process(COMMAND ${CLI} ${ARGV}
    WORKING_DIRECTORY ${WORKDIR} RESULT_VARIABLE rc OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "emsplit ${ARGV} failed (${rc}):\n${out}\n${err}")
  endif()
endfunction()

run(gen data.bin 50000 zipfian 7)
run(info data.bin)
run(splitters data.bin 8 1000 50000)
run(partition data.bin parts.bin 8 1000 50000)
run(sort data.bin sorted.bin)
run(select data.bin 1 25000 50000)
run(histogram data.bin 10 0.5)

# A bad spec must fail cleanly.
execute_process(COMMAND ${CLI} splitters data.bin 8 999999 50000
  WORKING_DIRECTORY ${WORKDIR} RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "infeasible spec unexpectedly succeeded")
endif()

# An oversized --batch-blocks is refused by set_io_tuning with exit code 1,
# not a signal: the size check must not wrap for values whose byte count
# overflows 64 bits.
foreach(batch 2305843009213693952 4503599627370496)
  execute_process(COMMAND ${CLI} --batch-blocks=${batch} sort data.bin big.bin
    WORKING_DIRECTORY ${WORKDIR} RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "set_io_tuning")
    message(FATAL_ERROR
      "--batch-blocks=${batch}: want exit 1 from set_io_tuning, got (${rc}):\n${err}")
  endif()
endforeach()

# Removed machine options are unknown, not silently ignored.
foreach(opt --cache-blocks=64 --queue-depth=1 --async=on)
  execute_process(COMMAND ${CLI} ${opt} info data.bin
    WORKING_DIRECTORY ${WORKDIR} RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_VARIABLE err)
  if(rc EQUAL 0 OR NOT err MATCHES "unknown option")
    message(FATAL_ERROR "${opt} was accepted (${rc}):\n${err}")
  endif()
endforeach()
