# Run CMD with ARGS (one space-separated string) and pass only if it
# exits nonzero and its combined stdout/stderr contains EXPECT.
#
#   cmake -DCMD=<binary> "-DARGS=<args>" -DEXPECT=<text> -P <this file>
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMD} ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(status EQUAL 0)
    message(FATAL_ERROR "'${CMD} ${ARGS}' exited 0; want an error")
endif()
string(FIND "${out}" "${EXPECT}" at)
if(at EQUAL -1)
    message(FATAL_ERROR
        "'${CMD} ${ARGS}' output does not name '${EXPECT}':\n${out}")
endif()
