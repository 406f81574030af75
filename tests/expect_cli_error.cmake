# Run CMD with ARGS (one space-separated string) and pass only if it
# exits nonzero and its combined stdout/stderr contains EXPECT. With
# WORKDIR set, CMD runs in that directory, emptied first, and must
# leave no file there.
#
#   cmake -DCMD=<binary> "-DARGS=<args>" -DEXPECT=<text>
#         [-DWORKDIR=<dir>] -P <this file>
separate_arguments(args UNIX_COMMAND "${ARGS}")
set(workdir)
if(DEFINED WORKDIR)
    file(REMOVE_RECURSE "${WORKDIR}")
    file(MAKE_DIRECTORY "${WORKDIR}")
    set(workdir WORKING_DIRECTORY "${WORKDIR}")
endif()
execute_process(COMMAND ${CMD} ${args}
                ${workdir}
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
if(DEFINED WORKDIR)
    file(GLOB written "${WORKDIR}/*")
    if(written)
        message(FATAL_ERROR "'${CMD} ${ARGS}' wrote ${written}")
    endif()
endif()
