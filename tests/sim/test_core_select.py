"""The engine-core selector refuses an extension built from other source.

``setup.py`` stamps ``_corec`` with the sha256 of ``_corec.c``;
``repro.sim._core`` compares the stamp with the file beside it.  A
gitignored ``.so`` that outlives a checkout is otherwise a "bit-exact
twin" of some other engine, and the first sign is a ``TypeError`` from C
a thousand tests in.
"""

from __future__ import annotations

import types
import warnings

import pytest

from repro.sim import _core


def _extension(stamp):
    module = types.ModuleType("repro.sim._corec")
    if stamp is not None:
        module.SOURCE_HASH = stamp
    return module


def test_matching_stamp_is_accepted_silently():
    module = _extension(_core.source_hash())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _core.accept(module) is module


@pytest.mark.parametrize("stamp", ["0" * 64, "unstamped", None])
def test_mis_stamped_extension_falls_back_with_one_warning(stamp):
    with pytest.warns(RuntimeWarning) as caught:
        assert _core.accept(_extension(stamp)) is None
    assert len(caught) == 1
    message = str(caught[0].message)
    assert (stamp or "unstamped") in message  # what the extension says
    assert _core.source_hash() in message  # what the source says
    assert "pure-Python engine" in message and "build_ext" in message


def test_no_source_beside_the_module_means_nothing_to_be_stale_against(monkeypatch):
    monkeypatch.setattr(_core, "_SOURCE", _core._SOURCE + ".gone")
    assert _core.source_hash() is None
    module = _extension("0" * 64)
    assert _core.accept(module) is module


def test_the_loaded_core_matches_its_source():
    info = _core.core_info()
    assert info["source_hash"] == _core.source_hash()
    if _core.compiled is not None:
        assert info["built_hash"] == info["source_hash"]
        assert info["refused_hash"] is None
    else:
        assert info["built_hash"] is None
