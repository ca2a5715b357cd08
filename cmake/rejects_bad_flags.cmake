# Runs PROGRAM once per bad flag in CASES and fails unless each run exits
# with status 2 (a usage error) before printing anything to stdout.
# ARGS are valid flags passed on every run, ahead of the bad one; CASES and
# ARGS are space-separated, and each case is one --flag=value word.
#
#   cmake -DPROGRAM=<path> "-DARGS=--only=table2" \
#         "-DCASES=--scale=30 --rate=nan" -P rejects_bad_flags.cmake
separate_arguments(base_args UNIX_COMMAND "${ARGS}")
separate_arguments(cases UNIX_COMMAND "${CASES}")
if(NOT cases)
  message(FATAL_ERROR "no CASES given")
endif()
get_filename_component(name "${PROGRAM}" NAME)
foreach(bad IN LISTS cases)
  execute_process(
    COMMAND ${PROGRAM} ${base_args} ${bad}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE status)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "${name} ${ARGS} ${bad} exited with ${status}, want 2\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${name} ${bad} printed output before rejecting its flags:\n${out}")
  endif()
endforeach()
