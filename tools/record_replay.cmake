# Records a fleet scenario's per-reader journals through `tagwatch_sim`
# (record_journal=), replays them (replay_journal=), and fails unless both
# runs exit 0 and print the same `fleet journal: N records, digest X` line.
#
#   cmake -DSIM=<tagwatch_sim> -DCONF=<fleet scenario.conf> -P record_replay.cmake
get_filename_component(name ${CONF} NAME_WE)
file(READ ${CONF} scenario)
set(prefix ${CMAKE_CURRENT_BINARY_DIR}/${name}.journal)
foreach(mode record replay)
  set(conf ${CMAKE_CURRENT_BINARY_DIR}/${name}.${mode}.conf)
  file(WRITE ${conf} "${scenario}\n${mode}_journal = ${prefix}\n")
  execute_process(COMMAND ${SIM} ${conf}
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${SIM} ${conf} exited with ${rc}")
  endif()
  string(REGEX MATCH "fleet journal: [0-9]+ records, digest [0-9a-f]+"
         ${mode} "${out}")
  if(NOT ${mode})
    message(FATAL_ERROR "${SIM} ${conf} printed no fleet journal digest")
  endif()
endforeach()
if(NOT record STREQUAL replay)
  message(FATAL_ERROR "replay of ${CONF} differs from its recording: "
          "'${record}' vs '${replay}'")
endif()
message(STATUS "${record}")
