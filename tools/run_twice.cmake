# Runs `tagwatch_sim CONF` twice and fails unless both runs exit 0 and
# print the same stdout.  The per-sink `mean us/read` column (the float
# ending each sink row) is host time, so it is masked before comparing.
#
#   cmake -DSIM=<tagwatch_sim> -DCONF=<scenario.conf> -P run_twice.cmake
foreach(run 1 2)
  execute_process(COMMAND ${SIM} ${CONF}
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${SIM} ${CONF} exited with ${rc}")
  endif()
  string(REGEX REPLACE "([0-9]+ +[0-9]+ +)[0-9]+\\.[0-9]+\n" "\\1-\n"
         out${run} "${out}")
endforeach()
if(NOT out1 STREQUAL out2)
  get_filename_component(name ${CONF} NAME_WE)
  file(WRITE ${name}.run1.txt "${out1}")
  file(WRITE ${name}.run2.txt "${out2}")
  message(FATAL_ERROR "two runs of ${CONF} differ: "
          "diff ${name}.run1.txt ${name}.run2.txt")
endif()
