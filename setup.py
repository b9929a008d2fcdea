"""Build script: compiles the optional compiled kernel.

The package works without the extension (a pure-Python kernel is selected at
import time); the compiled kernel is what makes large Monte Carlo sweeps fast.
With Cython the extension is generated from ``_fast.pyx``; without it, the
shipped ``_fast.c`` generated from that file is compiled as it is.
"""

import os
import sys

from setuptools import Extension, setup

try:
    import numpy
    import numpy.random
except ImportError:  # pragma: no cover - source-only install
    numpy = None

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

KERNEL = "src/gkptrack/kernels/_fast"

ext_modules = []
if numpy is not None:
    # the C distribution functions (random_standard_normal, ...) live in
    # numpy's static helper library shipped next to numpy.random
    npyrandom_dir = os.path.join(os.path.dirname(numpy.random.__file__), "lib")
    extension = Extension(
        "gkptrack.kernels._fast",
        [KERNEL + (".pyx" if cythonize is not None else ".c")],
        include_dirs=[numpy.get_include()],
        library_dirs=[npyrandom_dir],
        libraries=["npyrandom"],
        define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
        extra_compile_args=["-O3"],
    )
    if cythonize is not None:
        ext_modules = cythonize([extension], compiler_directives={"language_level": "3"})
    else:
        print("Cython not available at build time; compiling the shipped _fast.c", file=sys.stderr)
        ext_modules = [extension]
else:
    print("numpy not available at build time; installing pure-Python only", file=sys.stderr)

setup(ext_modules=ext_modules)
