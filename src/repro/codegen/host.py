"""C++ host program emission (the right-hand output of Fig. 6).

The host allocates device buffers, pads/reorders tensors, enqueues the
systolic kernel once per data block schedule invocation (grouped layers
run once per group), and reads results back.  It targets the standard
OpenCL 1.2 host API as used by the Intel FPGA SDK for OpenCL runtime;
with no OpenCL runtime available here it is emitted and content-checked
but not compiled.
"""

from __future__ import annotations

from repro.model.design_point import DesignPoint
from repro.model.platform import Platform
from repro.codegen.emitter import CodeWriter
from repro.codegen.template import Layout, global_dim


def generate_host(
    design: DesignPoint,
    platform: Platform,
    *,
    kernel_name: str = "systolic_conv",
    binary_name: str = "systolic.aocx",
) -> str:
    """Emit the C++ host source for one design point."""
    nest = design.nest
    out = nest.output
    reads = nest.reads
    type_of = Layout.of(nest, design.mapping, platform).type_of
    sizes = {
        a.array: " * ".join(str(global_dim(a, nest.bounds, d)) for d in range(a.rank))
        for a in nest.accesses
    }

    w = CodeWriter()
    w.comment(f"Auto-generated OpenCL host program for {design.signature}")
    w.comment(f"Kernel binary: {binary_name} (Intel FPGA SDK for OpenCL)")
    w.lines(
        "#include <CL/cl.h>",
        "#include <cstdio>",
        "#include <cstdlib>",
        "#include <cstring>",
        "#include <vector>",
        "#include <fstream>",
    )
    w.line()
    for access in nest.accesses:
        w.line(f"static const size_t SIZE_{access.array} = {sizes[access.array]};")
    w.line()
    w.lines(
        "#define CL_CHECK(status)                                                \\",
        "    do {                                                                \\",
        "        if ((status) != CL_SUCCESS) {                                   \\",
        '            std::fprintf(stderr, "OpenCL error %d at %s:%d\\n",          \\',
        "                         (status), __FILE__, __LINE__);                 \\",
        "            std::exit(1);                                               \\",
        "        }                                                               \\",
        "    } while (0)",
    )
    w.line()
    with w.block("static std::vector<unsigned char> load_binary(const char *path)"):
        w.line("std::ifstream f(path, std::ios::binary | std::ios::ate);")
        w.line('if (!f) { std::fprintf(stderr, "cannot open %s\\n", path); std::exit(1); }')
        w.line("std::streamsize n = f.tellg();")
        w.line("f.seekg(0);")
        w.line("std::vector<unsigned char> blob(static_cast<size_t>(n));")
        w.line("f.read(reinterpret_cast<char *>(blob.data()), n);")
        w.line("return blob;")
    w.line()
    with w.block("int main(int argc, char **argv)"):
        w.line(f'const char *binary_path = argc > 1 ? argv[1] : "{binary_name}";')
        w.line("cl_int status;")
        w.comment("Platform / device / context / queue.")
        w.lines(
            "cl_platform_id platform_id;",
            "CL_CHECK(clGetPlatformIDs(1, &platform_id, nullptr));",
            "cl_device_id device;",
            "CL_CHECK(clGetDeviceIDs(platform_id, CL_DEVICE_TYPE_ACCELERATOR, 1, &device, nullptr));",
            "cl_context context = clCreateContext(nullptr, 1, &device, nullptr, nullptr, &status);",
            "CL_CHECK(status);",
            "cl_command_queue queue = clCreateCommandQueue(context, device, "
            "CL_QUEUE_PROFILING_ENABLE, &status);",
            "CL_CHECK(status);",
        )
        w.comment("Program from the precompiled FPGA bitstream.")
        w.lines(
            "std::vector<unsigned char> blob = load_binary(binary_path);",
            "const unsigned char *blob_ptr = blob.data();",
            "size_t blob_size = blob.size();",
            "cl_program program = clCreateProgramWithBinary(context, 1, &device, "
            "&blob_size, &blob_ptr, nullptr, &status);",
            "CL_CHECK(status);",
            "CL_CHECK(clBuildProgram(program, 1, &device, \"\", nullptr, nullptr));",
            f'cl_kernel kernel = clCreateKernel(program, "{kernel_name}", &status);',
            "CL_CHECK(status);",
        )
        w.comment("Host tensors (caller fills these from the CNN model).")
        for access in nest.accesses:
            w.line(
                f"std::vector<{type_of[access.array]}> h_{access.array}(SIZE_{access.array});"
            )
        w.comment("Device buffers.")
        for access in nest.accesses:
            flags = "CL_MEM_WRITE_ONLY" if access.is_write else "CL_MEM_READ_ONLY"
            w.line(
                f"cl_mem d_{access.array} = clCreateBuffer(context, {flags}, "
                f"SIZE_{access.array} * sizeof({type_of[access.array]}), nullptr, &status);"
            )
            w.line("CL_CHECK(status);")
        for access in reads:
            w.line(
                f"CL_CHECK(clEnqueueWriteBuffer(queue, d_{access.array}, CL_TRUE, 0, "
                f"SIZE_{access.array} * sizeof({type_of[access.array]}), "
                f"h_{access.array}.data(), 0, nullptr, nullptr));"
            )
        w.comment("Kernel arguments follow the access order of the nest.")
        for position, access in enumerate(nest.accesses):
            w.line(
                f"CL_CHECK(clSetKernelArg(kernel, {position}, sizeof(cl_mem), &d_{access.array}));"
            )
        w.comment("Launch (single work-item kernel) and time it.")
        w.lines(
            "cl_event done;",
            "CL_CHECK(clEnqueueTask(queue, kernel, 0, nullptr, &done));",
            "CL_CHECK(clWaitForEvents(1, &done));",
            "cl_ulong t0 = 0, t1 = 0;",
            "CL_CHECK(clGetEventProfilingInfo(done, CL_PROFILING_COMMAND_START, "
            "sizeof(t0), &t0, nullptr));",
            "CL_CHECK(clGetEventProfilingInfo(done, CL_PROFILING_COMMAND_END, "
            "sizeof(t1), &t1, nullptr));",
        )
        w.line(
            f"CL_CHECK(clEnqueueReadBuffer(queue, d_{out.array}, CL_TRUE, 0, "
            f"SIZE_{out.array} * sizeof({type_of[out.array]}), h_{out.array}.data(), "
            "0, nullptr, nullptr));"
        )
        effective_ops = nest.total_operations
        w.line(f"double gops = {effective_ops}.0 / (double)(t1 - t0);")
        w.line('std::printf("kernel time %.3f ms, %.1f Gops\\n", (t1 - t0) / 1e6, gops);')
        w.comment("Cleanup.")
        for access in nest.accesses:
            w.line(f"clReleaseMemObject(d_{access.array});")
        w.lines(
            "clReleaseKernel(kernel);",
            "clReleaseProgram(program);",
            "clReleaseCommandQueue(queue);",
            "clReleaseContext(context);",
            "return 0;",
        )
    return w.render()


__all__ = ["generate_host"]
