"""The tracked ``_kernels.c`` must be generated from the current ``_kernels.pyx``.

Cython quotes the source above the C code of every statement: a block that
opens with ``/* "uplinksim/_kernels.pyx":N`` shows a few lines of context and
marks line N with ``# <<<<<<<<<<<<<<``.  Comparing each marked line with
line N of the ``.pyx`` catches a source edit whose C was not regenerated,
without needing Cython installed.
"""

import re
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "uplinksim"
BLOCK = re.compile(r'/\* "uplinksim/_kernels\.pyx":(\d+)\n(.*?)\*/', re.S)
MARKED = re.compile(r"^\s*\* (.*?)\s+# <<<<<<<<<<<<<<$", re.M)


def test_generated_c_quotes_current_pyx():
    pyx = (PKG / "_kernels.pyx").read_text(encoding="utf-8").splitlines()
    c_source = (PKG / "_kernels.c").read_text(encoding="utf-8")
    blocks = set(BLOCK.findall(c_source))
    assert blocks
    for lineno, body in blocks:
        marked = MARKED.findall(body)
        assert len(marked) == 1, f"block for line {lineno}: {body!r}"
        assert marked[0] == pyx[int(lineno) - 1].rstrip(), f"line {lineno}"
