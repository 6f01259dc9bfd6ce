# Artifact identity check: reruns a bench binary in full mode and fails
# unless the JSON it writes is byte-identical to the committed artifact.
# The faults, adversary and robust artifacts record simulated outcomes only
# (no wall time), so any difference is a change in behaviour.
#
#   cmake -DBENCH=<bench binary> -DEXPECTED=<committed json> -DOUT=<file>
#         -P artifact_identity.cmake
execute_process(COMMAND ${BENCH} --json ${OUT}
                OUTPUT_QUIET
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --json ${OUT} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${EXPECTED}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the committed ${EXPECTED}; if "
                      "the change in outcomes is intended, regenerate the "
                      "artifact with `${BENCH} --json ${EXPECTED}`")
endif()
