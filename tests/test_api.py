"""The package's public API: every exported name exists."""

import lexcite


def test_every_public_name_resolves():
    missing = [name for name in lexcite.__all__ if not hasattr(lexcite, name)]
    assert not missing
