# Compile-fail check for a contract a type holds (docs/CHECKING.md, "Type-held
# contracts"). Compiles PLANT with -fsyntax-only against the real headers
# twice: as is it must build clean, and with VSCALE_PLANT defined it must fail
# with every diagnostic its `// expect-error: <regex>` lines name.
#
#   cmake -DCXX=<compiler> -DROOT=<source dir> -DCHECKED=<0|1> -DPLANT=<file>
#         -P check.cmake

file(STRINGS ${PLANT} expects REGEX "^// expect-error: ")
if(NOT expects)
  message(FATAL_ERROR "${PLANT} has no `// expect-error: <regex>` line")
endif()

# The C locale keeps the compiler's quotes ASCII; under a UTF-8 locale GCC
# prints identifiers in U+2018/U+2019 quotes, which the regexes do not expect.
set(ENV{LC_ALL} C)
set(flags -std=c++20 -fsyntax-only -Wall -Wextra -Werror -I${ROOT}
          -DVSCALE_CHECKED=${CHECKED})
execute_process(COMMAND ${CXX} ${flags} ${PLANT}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PLANT} must build clean without its plant:\n${out}")
endif()
execute_process(COMMAND ${CXX} ${flags} -DVSCALE_PLANT ${PLANT}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "the plant in ${PLANT} built: the type no longer holds "
                      "its contract")
endif()
foreach(expect IN LISTS expects)
  string(REPLACE "// expect-error: " "" expect "${expect}")
  if(NOT out MATCHES "${expect}")
    message(FATAL_ERROR "the plant in ${PLANT} failed, but not with "
                        "/${expect}/:\n${out}")
  endif()
  message(STATUS "plant rejected: ${CMAKE_MATCH_0}")
endforeach()
