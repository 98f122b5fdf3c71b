"""The package's public name list."""

import finitenet


def test_public_names_resolve_sorted_and_unique():
    names = finitenet.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(finitenet, name) is not None, name
