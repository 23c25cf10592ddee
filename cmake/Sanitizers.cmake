# Sanitizer and warning-hardening knobs for the TAMP build.
#
#   -DTAMP_SANITIZE=address|undefined|thread|leak|address,undefined
#       Builds every target with the given sanitizer(s). address and
#       undefined compose; thread excludes address/leak (toolchain rule).
#   -DTAMP_WERROR=ON
#       Promotes all warnings to errors (CI / pre-merge runs).
#   -DTAMP_EXTRA_WARNINGS=ON (default)
#       Hardened warning set beyond -Wall -Wextra.
#
# Usage from the root CMakeLists.txt:
#   include(cmake/Sanitizers.cmake)
#   tamp_enable_sanitizers()   # after project(), before add_subdirectory()

set(TAMP_SANITIZE "" CACHE STRING
    "Comma-separated sanitizers to enable: address, undefined, thread, leak")
option(TAMP_WERROR "Treat warnings as errors" OFF)
option(TAMP_EXTRA_WARNINGS "Enable the hardened warning set" ON)

function(tamp_enable_sanitizers)
  if(TAMP_SANITIZE STREQUAL "")
    return()
  endif()

  string(REPLACE "," ";" _tamp_san_list "${TAMP_SANITIZE}")
  set(_tamp_san_flags "")
  set(_has_thread FALSE)
  set(_has_addr_or_leak FALSE)

  foreach(_san IN LISTS _tamp_san_list)
    string(STRIP "${_san}" _san)
    if(_san STREQUAL "address")
      list(APPEND _tamp_san_flags "-fsanitize=address")
      set(_has_addr_or_leak TRUE)
    elseif(_san STREQUAL "undefined")
      # GCC's undefined set leaves out float-to-int overflow
      # (static_cast<int> of a NaN/Inf/out-of-range double); trap it too.
      list(APPEND _tamp_san_flags "-fsanitize=undefined,float-cast-overflow")
    elseif(_san STREQUAL "thread")
      list(APPEND _tamp_san_flags "-fsanitize=thread")
      set(_has_thread TRUE)
    elseif(_san STREQUAL "leak")
      list(APPEND _tamp_san_flags "-fsanitize=leak")
      set(_has_addr_or_leak TRUE)
    else()
      message(FATAL_ERROR
        "TAMP_SANITIZE: unknown sanitizer '${_san}' "
        "(expected address, undefined, thread, or leak)")
    endif()
  endforeach()

  if(_has_thread AND _has_addr_or_leak)
    message(FATAL_ERROR
      "TAMP_SANITIZE: thread cannot be combined with address/leak")
  endif()

  # Sane stacks in sanitizer reports; halt on the first UB diagnostic so
  # ctest fails instead of scrolling past it.
  list(APPEND _tamp_san_flags "-fno-omit-frame-pointer")
  if("-fsanitize=undefined,float-cast-overflow" IN_LIST _tamp_san_flags)
    list(APPEND _tamp_san_flags
         "-fno-sanitize-recover=undefined,float-cast-overflow")
  endif()

  add_compile_options(${_tamp_san_flags})
  add_link_options(${_tamp_san_flags})
  message(STATUS "TAMP: building with sanitizers: ${TAMP_SANITIZE}")
endfunction()

function(tamp_enable_warnings)
  if(TAMP_EXTRA_WARNINGS)
    add_compile_options(
      -Wpedantic
      -Wshadow
      -Wconversion
      -Wsign-conversion
      -Wdouble-promotion
      -Wold-style-cast
    )
  endif()
  if(TAMP_WERROR)
    add_compile_options(-Werror)
  endif()
endfunction()
