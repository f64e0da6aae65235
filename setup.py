"""Build script: compiles the optional scheduling-kernel extension.

The package is fully functional without the extension (a pure-Python
implementation of the same kernels is selected at import time), so a
missing Cython or C compiler must not break installation.
"""

from setuptools import setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Swallow compiler failures; the pure-Python kernels remain usable."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, broken toolchain, ...
            print(f"warning: compiled kernels skipped ({exc}); "
                  "falling back to pure-Python kernels")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: building {ext.name} failed ({exc}); "
                  "falling back to pure-Python kernels")


ext_modules = []
try:
    from Cython.Build import cythonize

    ext_modules = cythonize(["src/uplinksim/_kernels.pyx"], language_level=3)
except ImportError:
    print("warning: Cython not available; installing pure-Python kernels only")

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
