# Adds the benchmark's targets to the root project without editing the root
# CMakeLists.txt. Pass this file at configure time, as run.py does:
#
#   cmake -S . -B .bench_build -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/perfbench/project_include.cmake
#   cmake --build .bench_build --target rdd_bench -j4
#   ctest --test-dir .bench_build -R perfbench --output-on-failure
#
# CMake includes it at the end of project(). The targets are defined by a
# call deferred to the end of the root CMakeLists.txt, so they are created
# after the root has set its compile flags and defined the library targets:
# the benchmark builds with the root's flags and links the root's libraries.
include_guard(GLOBAL)
set(RDD_PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(rdd_perfbench_targets)
  add_executable(rdd_bench ${RDD_PERFBENCH_DIR}/rdd_bench.cc
                           ${RDD_PERFBENCH_DIR}/load_gen.cc)
  target_link_libraries(rdd_bench rdd_serve rdd_stream rdd_core rdd_observe)

  find_package(Python3 COMPONENTS Interpreter)
  if(NOT Python3_FOUND)
    return()
  endif()
  add_test(NAME perfbench_rollup
           COMMAND ${Python3_EXECUTABLE} -B ${RDD_PERFBENCH_DIR}/test_rollup.py)
  foreach(workload cora_pipeline web_minibatch stream_online serve_mlp)
    foreach(trace 0 1)
      add_test(NAME perfbench_smoke_${workload}_trace${trace}
               COMMAND ${Python3_EXECUTABLE} -B ${RDD_PERFBENCH_DIR}/run.py
                       --workload ${workload} --seed 1 --seconds 1
                       --trace ${trace} --smoke
                       --binary $<TARGET_FILE:rdd_bench>
               WORKING_DIRECTORY ${CMAKE_SOURCE_DIR})
    endforeach()
  endforeach()
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
               CALL rdd_perfbench_targets)
