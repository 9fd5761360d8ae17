"""Legacy setup shim: lets `pip install -e .` work without the wheel
package (offline environments with older setuptools).

Also wires up the optional compiled engine core.  The extension is
marked optional so environments without a C toolchain still install
cleanly — the engine falls back to pure Python (see repro/sim/_core.py).
Build in place with:

    python setup.py build_ext --inplace

The build stamps the extension with the sha256 of its source, which
repro/sim/_core.py checks at import: an extension left over from some
other state of ``_corec.c`` is refused, not loaded.
"""

import hashlib
from pathlib import Path

from setuptools import Extension, setup

COREC = Path(__file__).parent / "src" / "repro" / "sim" / "_corec.c"

setup(
    ext_modules=[
        Extension(
            "repro.sim._corec",
            sources=["src/repro/sim/_corec.c"],
            define_macros=[
                (
                    "COREC_SOURCE_HASH",
                    '"%s"' % hashlib.sha256(COREC.read_bytes()).hexdigest(),
                )
            ],
            optional=True,
        )
    ]
)
