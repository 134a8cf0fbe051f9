# spec_compiler --verify must report an asynchronous constraint whose
# latency is infinite as such. The control-system schedule is saved,
# every `fz` execution is removed from it, and the result is verified:
# sporadic Z (fz -> fs) can then never execute, so it must print
# "latency inf / deadline 25 -> MISS" and the run must exit 2
# (INFEASIBLE).
#
# Invoked via `cmake -P` with COMPILER/SPEC/WORKDIR.

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(sched "${WORKDIR}/sched.txt")
set(stripped "${WORKDIR}/sched_no_fz.txt")

execute_process(COMMAND "${COMPILER}" "${SPEC}" --save "${sched}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "saving the schedule failed (${rc})")
endif()

file(STRINGS "${sched}" lines)
set(text "")
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^#")
    separate_arguments(tokens UNIX_COMMAND "${line}")
    list(REMOVE_ITEM tokens fz)
    list(JOIN tokens " " line)
  endif()
  string(APPEND text "${line}\n")
endforeach()
file(WRITE "${stripped}" "${text}")

execute_process(COMMAND "${COMPILER}" "${SPEC}" --verify "${stripped}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
message("${out}")
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2 (INFEASIBLE), got ${rc}")
endif()
if(NOT out MATCHES "# Z: latency inf / deadline 25 -> MISS")
  message(FATAL_ERROR "Z's infinite latency was not reported")
endif()
