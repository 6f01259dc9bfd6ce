# End-to-end identity check: runs `crmc race` with and without --no-batch
# and fails unless the two reports are byte-identical. The columnar step
# programs and the coroutine protocols share one round loop, so every
# statistic `race` prints must agree between them.
#
#   cmake -DCRMC=<crmc binary> -DRACE_ARGS="<flags>" -DOUT=<file prefix>
#         -P race_identity.cmake
separate_arguments(race_args UNIX_COMMAND "${RACE_ARGS}")
foreach(mode batch coroutine)
  set(extra "")
  if(mode STREQUAL "coroutine")
    set(extra --no-batch)
  endif()
  execute_process(COMMAND ${CRMC} race ${race_args} ${extra}
                  OUTPUT_FILE ${OUT}.${mode}.txt
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "crmc race ${RACE_ARGS} ${extra} exited with ${rc}")
  endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${OUT}.batch.txt ${OUT}.coroutine.txt
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crmc race ${RACE_ARGS}: output differs with "
                      "--no-batch (${OUT}.batch.txt vs ${OUT}.coroutine.txt)")
endif()
