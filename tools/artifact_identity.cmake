# Artifact identity check: reruns a bench binary in full mode and fails
# unless the JSON it writes is byte-identical to the committed artifact.
# The faults, adversary and robust artifacts record simulated outcomes only
# (no wall time), so any difference is a change in behaviour. An artifact
# that also records a wall time passes IGNORE_KEY, the name of the keys
# holding it: the numeric value of every key with exactly that name is
# masked in both files, and everything else must still match byte for byte.
#
#   cmake -DBENCH=<bench binary> -DEXPECTED=<committed json> -DOUT=<file>
#         [-DIGNORE_KEY=<key>] -P artifact_identity.cmake
execute_process(COMMAND ${BENCH} --json ${OUT}
                OUTPUT_QUIET
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --json ${OUT} exited with ${rc}")
endif()
if(DEFINED IGNORE_KEY)
  set(masked "\"${IGNORE_KEY}\": <ignored>")
  set(pattern "\"${IGNORE_KEY}\": *[-+0-9.eE]+")
  file(READ ${OUT} got)
  file(READ ${EXPECTED} want)
  string(REGEX REPLACE "${pattern}" "${masked}" got "${got}")
  string(REGEX REPLACE "${pattern}" "${masked}" want "${want}")
  if(got STREQUAL want)
    set(rc 0)
  else()
    set(rc 1)
  endif()
else()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${EXPECTED}
                  RESULT_VARIABLE rc)
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the committed ${EXPECTED}; if "
                      "the change in outcomes is intended, regenerate the "
                      "artifact with `${BENCH} --json ${EXPECTED}`")
endif()
