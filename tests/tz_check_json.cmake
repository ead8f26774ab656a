# `tz_check --json` must escape control bytes: a parse error that quotes a
# tab from the input has to come out as `\t`, never as a raw byte that makes
# the output invalid JSON.
#
#   cmake -DTZ_CHECK_EXE=<exe> -DWORK_DIR=<dir> -P tz_check_json.cmake
cmake_minimum_required(VERSION 3.20)
set(bench "${WORK_DIR}/tz_check_json_tab.bench")
file(WRITE "${bench}" "INPUT(a)\nOUTPUT(z)\nz = AND(a, \"q\tx\")\n")
execute_process(COMMAND "${TZ_CHECK_EXE}" --json "${bench}"
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
file(REMOVE "${bench}")
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "tz_check --json: exit ${rc}, want 1\n${out}")
endif()
string(FIND "${out}" "q\\tx" escaped)
if(escaped EQUAL -1)
  message(FATAL_ERROR "tz_check --json: no escaped tab in\n${out}")
endif()
# Everything but the trailing newline must be free of control bytes.
string(STRIP "${out}" body)
foreach(code RANGE 1 31)
  string(ASCII ${code} byte)
  string(FIND "${body}" "${byte}" pos)
  if(NOT pos EQUAL -1)
    message(FATAL_ERROR "tz_check --json: raw byte ${code} in\n${out}")
  endif()
endforeach()
