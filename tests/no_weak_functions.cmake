# Fails when one of OBJECTS defines a weak or indirect function (nm types
# W and i). Weak data (V, u: a vtable, the personality-routine reference a
# sanitizer adds) holds no instructions and may stay.
#
#   cmake -DNM=<nm> -DOBJECTS=<a.o;b.o> -P no_weak_functions.cmake
#
# The linker keeps one definition of a weak function (an inline function, a
# template instantiation) for the whole program. An object built for a
# higher ISA level than the rest of the program must define none, or code
# that runs on a CPU without that level may call its copy and fault.
execute_process(COMMAND ${NM} -C --defined-only ${OBJECTS}
                OUTPUT_VARIABLE symbols RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${OBJECTS}: ${status}")
endif()
string(REGEX MATCHALL "[^\n]* [Wi] [^\n]*" weak "${symbols}")
if(weak)
  string(REPLACE ";" "\n" weak "${weak}")
  message(FATAL_ERROR "weak functions defined in ${OBJECTS}:\n${weak}")
endif()
