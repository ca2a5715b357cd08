# Runs repro at --shards 1 and --shards 3 and fails unless both exit 0 and
# print byte-identical output.
#
#   cmake -DREPRO=<path to repro> -DOUT_DIR=<dir> -P repro_shard_invariance.cmake
foreach(shards 1 3)
  execute_process(
    COMMAND ${REPRO} --scale 12 --shards ${shards}
    OUTPUT_FILE ${OUT_DIR}/repro_shards${shards}.txt
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "repro --scale 12 --shards ${shards} exited with ${status}")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${OUT_DIR}/repro_shards1.txt ${OUT_DIR}/repro_shards3.txt
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "repro output differs between --shards 1 and --shards 3: "
                      "diff ${OUT_DIR}/repro_shards1.txt ${OUT_DIR}/repro_shards3.txt")
endif()
