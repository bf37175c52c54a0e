"""The package namespace: everything alphafn.__all__ names resolves."""

from __future__ import annotations

import alphafn


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from alphafn import *", namespace)
    for name in alphafn.__all__:
        assert name in namespace, name
        assert namespace[name] is getattr(alphafn, name)


def test_exports_are_unique_and_dropped_wrappers_gone():
    assert len(set(alphafn.__all__)) == len(alphafn.__all__)
    for name in ("AlphaQuery", "HadamardProduct", "StirlingTable", "backend_name"):
        assert name not in alphafn.__all__
        assert not hasattr(alphafn, name)
