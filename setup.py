"""Build script for the optional compiled counting kernel.

The package is pure Python except for picardkit.counting._ckernel, a C
extension holding the point-enumeration inner loops.  The extension is marked
optional: if no C compiler is available the install still succeeds and the
package falls back to the pure-Python kernel at import time.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "picardkit.counting._ckernel",
            ["src/picardkit/counting/_ckernel.c"],
            optional=True,
        )
    ]
)
