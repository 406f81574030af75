# Run CMD with ARGS (one space-separated string), write its stdout to
# OUT and pass only if it exits 0 and OUT equals GOLDEN byte for byte.
#
#   cmake -DCMD=<binary> "-DARGS=<args>" -DGOLDEN=<file> -DOUT=<file>
#         -P <this file>
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMD} ${args}
                RESULT_VARIABLE status
                OUTPUT_FILE ${OUT}
                ERROR_VARIABLE err)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "'${CMD} ${ARGS}' exited ${status}:\n${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
    message(FATAL_ERROR "'${CMD} ${ARGS}' output ${OUT} differs from "
                        "${GOLDEN}")
endif()
