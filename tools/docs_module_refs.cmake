# Fails when DESIGN.md, README.md or EXPERIMENTS.md names a source file
# `<module>/<file>` (with or without an extension, e.g. `exec/executor` or
# `scanner/stateless.hpp`) that does not exist under src/<module>/. A module
# is any directory directly under src/.
#
#   cmake -DSOURCE_DIR=<repo root> -P docs_module_refs.cmake
cmake_minimum_required(VERSION 3.16)

file(GLOB module_dirs LIST_DIRECTORIES true "${SOURCE_DIR}/src/*")
set(modules "")
foreach(dir IN LISTS module_dirs)
  if(IS_DIRECTORY "${dir}")
    get_filename_component(name "${dir}" NAME)
    list(APPEND modules "${name}")
  endif()
endforeach()

set(stale "")
foreach(doc DESIGN.md README.md EXPERIMENTS.md)
  file(READ "${SOURCE_DIR}/${doc}" text)
  # Every slash-joined run of words; each (module, next word) pair in it
  # is a reference, so `src/scanner/targets.hpp` checks `scanner/targets`.
  string(REGEX MATCHALL "[A-Za-z0-9_]+(/[A-Za-z0-9_]+)+" paths "${text}")
  foreach(path IN LISTS paths)
    string(REPLACE "/" ";" parts "${path}")
    list(LENGTH parts count)
    math(EXPR last "${count} - 2")
    foreach(i RANGE 0 ${last})
      list(GET parts ${i} module)
      if(NOT module IN_LIST modules)
        continue()
      endif()
      math(EXPR next "${i} + 1")
      list(GET parts ${next} stem)
      set(base "${SOURCE_DIR}/src/${module}/${stem}")
      if(NOT EXISTS "${base}" AND NOT EXISTS "${base}.hpp" AND NOT EXISTS "${base}.cpp")
        list(APPEND stale "${doc}: ${module}/${stem}")
      endif()
    endforeach()
  endforeach()
endforeach()

if(stale)
  list(REMOVE_DUPLICATES stale)
  list(JOIN stale "\n  " listing)
  message(FATAL_ERROR "docs name source files that do not exist under src/:\n  ${listing}")
endif()
