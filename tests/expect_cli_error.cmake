# Run CMD with ARGS (one space-separated string) and pass only if it
# exits with status STATUS (default 1) and its combined stdout/stderr
# contains EXPECT. The exact status keeps a crash (a panic's abort)
# from passing as an error report. With WORKDIR set, CMD runs in that
# directory, emptied first, and must leave no file there.
#
#   cmake -DCMD=<binary> "-DARGS=<args>" -DEXPECT=<text>
#         [-DSTATUS=<n>] [-DWORKDIR=<dir>] -P <this file>
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(NOT DEFINED STATUS)
    set(STATUS 1)
endif()
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
if(NOT status STREQUAL STATUS)
    message(FATAL_ERROR
        "'${CMD} ${ARGS}' exited '${status}'; want ${STATUS}:\n${out}")
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
