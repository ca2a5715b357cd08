# Lists bench_micro's cases and fails unless the two that CI gates against
# BENCH_datapath.json are present under exactly their baseline names (no
# /real_time, /iterations: or other suffix).
#
#   cmake -DBENCH_MICRO=<path to bench_micro> -P bench_micro_gated_names.cmake
cmake_minimum_required(VERSION 3.16)

execute_process(
  COMMAND ${BENCH_MICRO} --benchmark_list_tests
  OUTPUT_VARIABLE out
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "bench_micro --benchmark_list_tests exited with ${status}")
endif()
string(REPLACE "\n" ";" cases "${out}")
foreach(name stateless_sweep_rate stateful_iw_scan_rate)
  if(NOT name IN_LIST cases)
    message(FATAL_ERROR "bench_micro lists no case named exactly '${name}':\n${out}")
  endif()
endforeach()
