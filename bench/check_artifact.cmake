# Rerun one bench into a scratch file and compare it byte for byte with its
# committed BENCH_*.json, so a committed number cannot move unnoticed:
#
#   cmake -DBENCH=<bench binary> -DEXPECTED=<committed json>
#         -DOUTPUT=<scratch json> -P check_artifact.cmake
execute_process(COMMAND "${BENCH}" "--json=${OUTPUT}"
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUTPUT}" "${EXPECTED}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(READ "${OUTPUT}" got)
  message(FATAL_ERROR "${OUTPUT} no longer matches ${EXPECTED}; the rerun wrote:\n${got}")
endif()
