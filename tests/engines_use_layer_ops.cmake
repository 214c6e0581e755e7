# Fails when one of SOURCES calls a GCN layer kernel or its cost directly
# instead of through a core/layer_ops.hpp task builder.
#
#   cmake -DSOURCES=<a.cpp;b.cpp> -P engines_use_layer_ops.cmake
#
# A layer-op builder derives a task's cost, declared accesses and body from
# the same operands, so the shape a task is charged for is the shape its
# body runs. An engine that prices or runs a GeMM, ReLU, loss or Adam step
# by hand can let the two drift apart.
set(kernels "gemm_cost|elementwise_cost|loss_cost|adam_cost|adam_update|softmax_cross_entropy_inplace|relu_forward|relu_backward")
set(found "")
foreach(source IN LISTS SOURCES)
  file(READ ${source} text)
  # Each call with the rest of its statement before it (no semicolons, so
  # one list element per call).
  string(REGEX MATCHALL "[^\n;]*[^A-Za-z0-9_\n;](${kernels})[ \t]*\\("
         calls "${text}")
  foreach(call IN LISTS calls)
    string(STRIP "${call}" call)
    string(APPEND found "\n  ${source}: ${call}")
  endforeach()
endforeach()
if(found)
  message(FATAL_ERROR "layer kernels called outside core/layer_ops.cpp:${found}")
endif()
