# Each malformed `tz_sat fuzz` count must exit with the usage error (2).
#
#   cmake -DTZ_SAT=<exe> -P tz_sat_usage.cmake
cmake_minimum_required(VERSION 3.20)
foreach(args IN ITEMS "--runs;abc" "--runs;0" "--runs;-5" "--seed;1x")
  execute_process(COMMAND "${TZ_SAT}" fuzz ${args}
                  OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "tz_sat fuzz ${args}: exit ${rc}, want 2")
  endif()
endforeach()
