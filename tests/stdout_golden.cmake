# Runs BIN once per entry of THREADS (as TZ_THREADS) and requires its stdout
# to equal the GOLDEN file byte for byte; reports the first differing line.
#
#   cmake -DBIN=<exe> -DGOLDEN=<file> "-DTHREADS=1;4" -P stdout_golden.cmake
cmake_minimum_required(VERSION 3.20)
file(READ "${GOLDEN}" want)
foreach(t IN LISTS THREADS)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env TZ_THREADS=${t} "${BIN}"
    OUTPUT_VARIABLE got
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} (TZ_THREADS=${t}) exited with ${rc}")
  endif()
  if(NOT "${got}" STREQUAL "${want}")
    # Walk both texts line by line to the first difference.
    set(line 1)
    set(g_rest "${got}")
    set(w_rest "${want}")
    while(TRUE)
      string(FIND "${g_rest}" "\n" gi)
      string(FIND "${w_rest}" "\n" wi)
      string(SUBSTRING "${g_rest}" 0 ${gi} g)
      string(SUBSTRING "${w_rest}" 0 ${wi} w)
      if(NOT "${g}" STREQUAL "${w}" OR gi EQUAL -1 OR wi EQUAL -1)
        break()
      endif()
      math(EXPR gi "${gi} + 1")
      math(EXPR wi "${wi} + 1")
      string(SUBSTRING "${g_rest}" ${gi} -1 g_rest)
      string(SUBSTRING "${w_rest}" ${wi} -1 w_rest)
      math(EXPR line "${line} + 1")
    endwhile()
    message(FATAL_ERROR "stdout (TZ_THREADS=${t}) differs from ${GOLDEN} "
                        "at line ${line}\n  golden: ${w}\n  got:    ${g}")
  endif()
endforeach()
