# The checker's own test: with --corrupt-oracle every expected RANK answer
# (and each batch oracle's first bucket size) is off on purpose, so a sound
# checker must exit non-zero and report failed operations.
#   cmake -DBENCH=<emsplit_bench> -DWORKDIR=<dir> -P smoke_corrupt.cmake
foreach(workload serve_hot splitters)
  execute_process(
    COMMAND ${BENCH} --smoke --corrupt-oracle --seed=1 --workload=${workload}
            --workdir=${WORKDIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${workload}: corrupted oracle but exit code 0\n${out}")
  endif()
  string(REGEX MATCH "\"metric\":\"failed\",\"value\":([0-9]+)" _ "${out}")
  if(NOT CMAKE_MATCH_1 OR CMAKE_MATCH_1 EQUAL 0)
    message(FATAL_ERROR "${workload}: corrupted oracle but no failed operation\n${out}")
  endif()
  message(STATUS "${workload}: exit ${rc}, ${CMAKE_MATCH_1} failed operations")
endforeach()
