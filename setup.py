"""Build script for the optional compiled counting kernel.

The package is pure Python except for picardkit.counting._ckernel, a C
extension holding the point-enumeration inner loops.  The extension is marked
optional: if no C compiler is available the install still succeeds and the
package falls back to the pure-Python kernel at import time.

An in-place build (`python setup.py build_ext --inplace`) also writes the
bytecode of every module, so a source checkout run with
PYTHONDONTWRITEBYTECODE set does not recompile on each start.  The .pyc files
are timestamp-checked: an edited module is recompiled, never served stale.
`pip install` byte-compiles on its own.
"""

import compileall
from pathlib import Path

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

PACKAGE = Path(__file__).resolve().parent / "src" / "picardkit"


class build_ext_bytecode(build_ext):
    def run(self):
        super().run()
        if self.inplace:
            compileall.compile_dir(str(PACKAGE), quiet=1)


setup(
    cmdclass={"build_ext": build_ext_bytecode},
    ext_modules=[
        Extension(
            "picardkit.counting._ckernel",
            ["src/picardkit/counting/_ckernel.c"],
            optional=True,
        )
    ],
)
