# Runs repro with out-of-range --scale, --rate and --loss values and fails
# unless each exits with status 2 (a usage error) before running anything.
# 4294967308 is 2^32 + 12: it must not wrap to a valid int scale.
#
#   cmake -DREPRO=<path to repro> -P repro_rejects_bad_flags.cmake
foreach(args "--scale;30" "--scale;11" "--scale;4294967308"
             "--rate;-5" "--rate;nan" "--rate;0" "--loss;2" "--loss;-0.1" "--loss;nan")
  execute_process(
    COMMAND ${REPRO} --only table2 --scale 12 ${args}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE status)
  list(JOIN args " " shown)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "repro --only table2 ${shown} exited with ${status}, want 2\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "repro ${shown} printed output before rejecting its flags:\n${out}")
  endif()
endforeach()
