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

# Removed device options are refused with a usage error.
foreach(pair backend:uring shards:2 stripe-blocks:8)
  string(REPLACE ":" "=" opt "--${pair}")
  execute_process(COMMAND ${CLI} ${opt} info data.bin
    WORKING_DIRECTORY ${WORKDIR} RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: emsplit")
    message(FATAL_ERROR "${opt}: want a usage error (exit 2), got (${rc}):\n${err}")
  endif()
endforeach()

# Removed worker-supervision and CPU-pool options are refused with a usage
# error, and the usage text no longer lists them; --kill-worker (the lane
# kill hook) and --mem-workers are unaffected.
foreach(pair hang-worker:1:2 corrupt-frame:1:2 max-worker-retries:2
        worker-timeout:8 degrade-after:1 threads:4 sort-shards:2)
  string(REGEX REPLACE "^([a-z-]+):" "--\\1=" opt "${pair}")
  execute_process(COMMAND ${CLI} ${opt} info data.bin
    WORKING_DIRECTORY ${WORKDIR} RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: emsplit")
    message(FATAL_ERROR "${opt}: want a usage error (exit 2), got (${rc}):\n${err}")
  endif()
  string(REGEX MATCH "--[a-z-]+" flag "${opt}")
  string(FIND "${err}" "[${flag}=" listed)
  if(NOT listed EQUAL -1)
    message(FATAL_ERROR "usage text still lists ${flag}:\n${err}")
  endif()
endforeach()
run(--mem-workers=2 --kill-worker=0:99 info data.bin)

# Corruption on resume: a checksummed run killed mid-job keeps its device
# file and checksum sidecar; a byte flipped in the device while no process
# runs must fail the resume with a checksum mismatch, not yield wrong output.
find_program(PYTHON3 NAMES python3)
if(NOT PYTHON3)
  message(FATAL_ERROR "python3 is needed to flip a byte of the device file")
endif()
run(gen wdata.bin 1000000 uniform 13)
file(REMOVE_RECURSE ${WORKDIR}/ck)
file(MAKE_DIRECTORY ${WORKDIR}/ck)
set(resume_args --mem-bytes=8388608 --workers=2 --checksums=on
  --checkpoint-dir=ck dsort wdata.bin wout.bin)
execute_process(COMMAND ${CLI} --kill-worker=1:2 ${resume_args}
  WORKING_DIRECTORY ${WORKDIR} RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 137)
  message(FATAL_ERROR "killed run: want exit 137, got (${rc}):\n${err}")
endif()
file(WRITE ${WORKDIR}/flip.py "import os, sys
p = sys.argv[1]
mid = os.path.getsize(p) // 2
with open(p, 'r+b') as f:
    f.seek(mid)
    b = f.read(1)
    f.seek(mid)
    f.write(bytes([b[0] ^ 1]))
")
execute_process(COMMAND ${PYTHON3} flip.py ck/device.bin
  WORKING_DIRECTORY ${WORKDIR} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "could not flip a byte of ck/device.bin")
endif()
execute_process(COMMAND ${CLI} ${resume_args}
  WORKING_DIRECTORY ${WORKDIR} RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "checksum mismatch")
  message(FATAL_ERROR
    "resume over a corrupted device: want a checksum mismatch, got (${rc}):\n${out}\n${err}")
endif()

# A device file shorter than the journal: a sort killed after its first
# journaled pass, whose device file then loses its second half, must refuse
# the resume (restore would grow the file back with zeros and sort them).
run(gen tdata.bin 200000 uniform 17)
file(REMOVE_RECURSE ${WORKDIR}/tck)
file(MAKE_DIRECTORY ${WORKDIR}/tck)
set(trunc_args --mem-bytes=262144 --backend=file --checksums=on
  --checkpoint-dir=tck sort tdata.bin tout.bin)
execute_process(COMMAND ${CLI} --crash-after-pass=1 ${trunc_args}
  WORKING_DIRECTORY ${WORKDIR} RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 137)
  message(FATAL_ERROR "crashed run: want exit 137, got (${rc}):\n${err}")
endif()
file(WRITE ${WORKDIR}/halve.py "import os, sys
p = sys.argv[1]
os.truncate(p, os.path.getsize(p) // 2)
")
execute_process(COMMAND ${PYTHON3} halve.py tck/device.bin
  WORKING_DIRECTORY ${WORKDIR} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "could not truncate tck/device.bin")
endif()
execute_process(COMMAND ${CLI} ${trunc_args}
  WORKING_DIRECTORY ${WORKDIR} RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "preserved contents")
  message(FATAL_ERROR
    "resume over a truncated device: want a refusal, got (${rc}):\n${out}\n${err}")
endif()
