"""The package's public name list."""

import finitenet


def test_public_names_resolve_sorted_and_unique():
    names = finitenet.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(finitenet, name) is not None, name


def test_test_oracles_are_not_package_names():
    # the sampler and the arc measure stay in their modules, where the
    # tests and the benchmark's tracer reach them
    for name in ("sample_uniform_in_region", "inside_arc_measure"):
        assert not hasattr(finitenet, name), name
