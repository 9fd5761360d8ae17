"""Select the compiled engine core, falling back to pure Python.

The compiled core (``repro.sim._corec``, a C extension built by
``python setup.py build_ext --inplace``) is a bit-exact twin of the
pure-Python engine in :mod:`repro.sim.engine`: same event order, same
seq draws, same counters, same exception messages.  The golden-master
suite and the scheduler fuzz test pin the equivalence, so which core
runs is purely a speed decision.

Selection rules:

* ``REPRO_NO_COMPILED`` set (to anything non-empty) forces the pure
  engine — the escape hatch for debugging and for measuring the
  pure-Python baseline in benchmarks.
* Otherwise the extension is imported if present; *any* failure (not
  built, ABI mismatch, missing compiler) falls back silently.  Importing
  repro must never require a C toolchain.
* An extension that imports but was built from some other state of
  ``_corec.c`` than the one beside it is refused, with one warning: the
  build stamps the module with its source's sha256 (``SOURCE_HASH``),
  and a gitignored ``.so`` outliving a checkout is otherwise a twin that
  silently is not one.

``ENGINE_IMPL`` is ``"compiled"`` or ``"pure"``; :func:`core_info`
returns a dict for CLI/CI introspection (``repro run --engine-info``).
"""

from __future__ import annotations

import os

from repro.util.hashing import sha256

_SOURCE = os.path.join(os.path.dirname(__file__), "_corec.c")


def source_hash() -> str | None:
    """sha256 of ``_corec.c`` as it is on disk (None: no source here)."""
    try:
        with open(_SOURCE, "rb") as source:
            return sha256(source.read()).hexdigest()
    except OSError:
        return None


def _stamp(module) -> str:
    """What the build wrote into ``module`` (old builds wrote nothing)."""
    return getattr(module, "SOURCE_HASH", "unstamped")


def accept(module):
    """``module`` when its build stamp matches the source beside this file
    (or there is no source to be stale against); else None, with a warning
    naming both hashes."""
    built = _stamp(module)
    source = source_hash()
    if source is None or built == source:
        return module
    import warnings

    warnings.warn(
        f"{module.__name__} was built from another _corec.c (extension "
        f"{built}, source {source}); using the pure-Python engine — rebuild "
        "with `python setup.py build_ext --inplace`",
        RuntimeWarning,
        stacklevel=2,
    )
    return None


ENGINE_IMPL = "pure"
compiled = None  # the _corec module when active, else None
_refused = None  # the _corec module when it was found stale, else None

if not os.environ.get("REPRO_NO_COMPILED"):
    try:
        from repro.sim import _corec
    except Exception:  # pragma: no cover - absent/broken extension
        pass
    else:
        compiled = accept(_corec)
        if compiled is not None:
            ENGINE_IMPL = "compiled"
        else:
            _refused = _corec


def core_info() -> dict:
    """Which engine core is active, and why (for ``--engine-info``)."""
    return {
        "impl": ENGINE_IMPL,
        "module": compiled.__name__ if compiled is not None else
                  "repro.sim.engine",
        "forced_pure": bool(os.environ.get("REPRO_NO_COMPILED")),
        "source_hash": source_hash(),
        "built_hash": _stamp(compiled) if compiled is not None else None,
        "refused_hash": _stamp(_refused) if _refused is not None else None,
    }
