"""The package's public names."""

from __future__ import annotations

import ramsat


def test_all_names_resolve_without_duplicates():
    assert len(set(ramsat.__all__)) == len(ramsat.__all__)
    for name in ramsat.__all__:
        assert hasattr(ramsat, name), name
