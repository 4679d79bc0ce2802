from setuptools import Extension, setup

# A plain C library, loaded by bfforms._kernels_c through ctypes.  Without a
# C compiler the install still succeeds and runs the pure-Python kernels.
setup(
    ext_modules=[
        Extension(
            "bfforms._ckernel",
            ["src/bfforms/_ckernel.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
