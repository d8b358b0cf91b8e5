# cbde_tool checks, run as `cmake -DTOOL=<cbde_tool> -DCHECK=<name>
# [-DWORK=<dir>] -P cbde_tool_test.cmake`. Any failed step is a FATAL_ERROR,
# so the test fails on cmake's exit code.
#
#   roundtrip   `delta` then `patch` in WORK must rebuild the target byte for
#               byte (this file as the base, an edited copy as the target).
#   unwritable  `pack` to /dev/full must exit 1 and print "cannot write".

set(base "${CMAKE_CURRENT_LIST_FILE}")

if(CHECK STREQUAL "roundtrip")
  file(MAKE_DIRECTORY "${WORK}")
  file(READ "${base}" text)
  string(REPLACE "byte for byte" "byte for byte, edited" text "${text}")
  file(WRITE "${WORK}/target.txt" "inserted first line\n${text}appended last line\n")
  foreach(step "delta;${base};${WORK}/target.txt;${WORK}/target.cbd1"
               "patch;${base};${WORK}/target.cbd1;${WORK}/rebuilt.txt")
    execute_process(COMMAND "${TOOL}" ${step} RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "cbde_tool ${step} exited ${status}")
    endif()
  endforeach()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORK}/target.txt" "${WORK}/rebuilt.txt"
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "patch did not rebuild the target")
  endif()
elseif(CHECK STREQUAL "unwritable")
  execute_process(COMMAND "${TOOL}" pack "${base}" /dev/full
                  RESULT_VARIABLE status ERROR_VARIABLE err)
  if(NOT status EQUAL 1 OR NOT err MATCHES "cannot write /dev/full")
    message(FATAL_ERROR "pack to /dev/full exited ${status}, stderr: ${err}")
  endif()
else()
  message(FATAL_ERROR "unknown CHECK '${CHECK}'")
endif()
