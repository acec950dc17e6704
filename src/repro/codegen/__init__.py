"""Code generation (the right half of the paper's Fig. 6).

The design options chosen by the DSE "are parameterized to instantiate
template files, including OpenCL systolic array implementation (kernel),
as well as the C/C++ software program (host)".  This package emits:

* :mod:`repro.codegen.template` — the one blocked systolic nest (layout,
  skeleton, addressing dialect) that kernel, testbench and unified
  kernel are all emitted from;
* :mod:`repro.codegen.opencl` — the Intel-style single-work-item OpenCL
  kernel: parameter header, double-buffered IB/WB chains, the PE array as
  fully unrolled shift registers, OB drain;
* :mod:`repro.codegen.host` — the C++ host program;
* :mod:`repro.codegen.testbench` — a self-contained plain-C testbench
  implementing the *same* block/buffer/schedule semantics, plus a naive
  reference and a comparison ``main``; with a C compiler available the
  testbench is compiled and executed, giving true end-to-end functional
  validation of the generated design;
* :mod:`repro.codegen.rtl` — a structural Verilog-2001 emitter for the
  PE array (shift-register chains, ping-pong accumulators), interpreted
  by :mod:`repro.sim.rtl` and cross-checked under iverilog.

Targets sit behind the :class:`repro.codegen.backend.CodegenBackend`
protocol; :data:`repro.codegen.backend.BACKENDS` is the registry.
"""

from repro.codegen.backend import BACKENDS, CodegenBackend, get_backend
from repro.codegen.emitter import CodeWriter
from repro.codegen.host import generate_host
from repro.codegen.opencl import OPENCL_SHIM, generate_kernel, generate_kernel_driver
from repro.codegen.rtl import generate_rtl, rtl_module_hash
from repro.codegen.testbench import generate_testbench, run_testbench
from repro.codegen.unified import (
    UnifiedLayerSpec,
    generate_unified_kernel,
    generate_unified_testbench,
)

__all__ = [
    "BACKENDS",
    "CodeWriter",
    "CodegenBackend",
    "OPENCL_SHIM",
    "UnifiedLayerSpec",
    "generate_host",
    "generate_kernel",
    "generate_kernel_driver",
    "generate_rtl",
    "generate_testbench",
    "generate_unified_kernel",
    "generate_unified_testbench",
    "get_backend",
    "rtl_module_hash",
    "run_testbench",
]
