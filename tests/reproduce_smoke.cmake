# Run scripts/reproduce.py at a tiny trace length and pass only if it
# exits 0, prints every section heading, prints exactly GOLDEN once
# the `wrote ...` lines (they carry OUT, and the PNG ones appear only
# with gnuplot) are dropped, and writes the six figure CSVs with their
# full row counts. Everything it writes stays in OUT.
#
#   cmake -DSCRIPT=<reproduce.py> -DCMD=<cmpcache> -DOUT=<dir>
#         -DGOLDEN=<expected stdout> -P <this file>
file(REMOVE_RECURSE "${OUT}")
execute_process(COMMAND ${SCRIPT} --cmpcache=${CMD} --refs=300
                        --results-dir=${OUT}/results -o ${OUT}/figures
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "reproduce.py exited ${status}:\n${err}")
endif()
foreach(section "Table 1" "Table 2" "Table 3" "Table 4" "Table 5"
        "Figure 2" "Figure 3" "Figure 4" "Figure 5" "Figure 6"
        "Figure 7" "Ablations" "Future work" "L3 latency")
    string(FIND "${out}" "\n== ${section}:" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "no '${section}' section in:\n${out}")
    endif()
endforeach()
# Each match takes the newline before a `wrote` line, so runs of them
# go too; the leading newline lets the first line match.
string(REGEX REPLACE "\nwrote [^\n]*" "" tables "\n${out}")
string(SUBSTRING "${tables}" 1 -1 tables)
file(WRITE "${OUT}/stdout.txt" "${tables}")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${OUT}/stdout.txt" "${GOLDEN}"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
    message(FATAL_ERROR "reproduce.py stdout (without its 'wrote' "
                        "lines) ${OUT}/stdout.txt differs from ${GOLDEN}")
endif()
foreach(fig 2 3 4 5 6 7)
    set(csv "${OUT}/figures/fig${fig}.csv")
    if(NOT EXISTS "${csv}")
        message(FATAL_ERROR "reproduce.py wrote no ${csv}")
    endif()
    file(STRINGS "${csv}" lines)
    list(LENGTH lines n)
    # header + one row per pressure level (1-6) or table size (8)
    if(fig EQUAL 4 OR fig EQUAL 6)
        set(want 9)
    else()
        set(want 7)
    endif()
    if(NOT n EQUAL want)
        message(FATAL_ERROR "${csv} has ${n} lines, want ${want}")
    endif()
endforeach()
