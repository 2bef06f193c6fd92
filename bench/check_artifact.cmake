# Rerun one or more benches into a scratch file and compare it byte for byte
# with its committed BENCH_*.json, so a committed number cannot move unnoticed:
#
#   cmake -DBENCH=<bench binary>[;<bench binary>...] [-DARGS=<arg>[;<arg>...]]
#         -DEXPECTED=<committed json> -DOUTPUT=<scratch json> -P check_artifact.cmake
#
# ARGS, when given, holds one extra argument per bench, in BENCH order. With
# one bench its --json output is the artifact; with several, the artifact is
# one JSON object that holds each bench's output under the bench's name.
list(LENGTH BENCH count)
set(combined "{")
set(separator "\n")
set(index 0)
foreach(bench IN LISTS BENCH)
  set(bench_args "")
  if(DEFINED ARGS)
    list(GET ARGS ${index} bench_args)
  endif()
  set(part "${OUTPUT}")
  if(count GREATER 1)
    set(part "${OUTPUT}.${index}")
  endif()
  execute_process(COMMAND "${bench}" ${bench_args} "--json=${part}"
                  RESULT_VARIABLE status OUTPUT_QUIET)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${bench} exited with status ${status}")
  endif()
  if(count GREATER 1)
    file(READ "${part}" json)
    string(STRIP "${json}" json)
    string(REPLACE "\n" "\n  " json "${json}")
    get_filename_component(name "${bench}" NAME_WE)
    string(APPEND combined "${separator}  \"${name}\": ${json}")
    set(separator ",\n")
  endif()
  math(EXPR index "${index} + 1")
endforeach()
if(count GREATER 1)
  file(WRITE "${OUTPUT}" "${combined}\n}\n")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUTPUT}" "${EXPECTED}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(READ "${OUTPUT}" got)
  message(FATAL_ERROR "${OUTPUT} no longer matches ${EXPECTED}; the rerun wrote:\n${got}")
endif()
