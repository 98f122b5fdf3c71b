"""The benchmark's tracer wraps finitenet functions by module attribute name.

A rename of any wrapped name (say `cli.outage_mgf`, `mgf.adaptive_rows_quad`
or `mgf._euler_cdf_from_samples`) breaks the benchmark's traced run; this
test catches it in the regular suite. It also checks that `restore` puts
every original object back.
"""

import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def test_tracer_wraps_and_restores_every_hook():
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        hooks = list(tracer._patches)
        wrapped = [getattr(module, attr) for module, attr, _ in hooks]
    finally:
        tracer.restore()
    assert hooks
    names = {(module.__name__, attr) for module, attr, _ in hooks}
    for name in (("finitenet.cli", "outage_mgf"),
                 ("finitenet.mgf", "adaptive_rows_quad"),
                 ("finitenet.mgf", "_euler_cdf_from_samples")):
        assert name in names
    for (module, attr, orig), wrapper in zip(hooks, wrapped):
        assert wrapper is not orig, (module.__name__, attr)
        assert getattr(module, attr) is orig, (module.__name__, attr)


def test_disk_pdf_reaches_the_wrapped_closed_form():
    # the benchmark counts disk pdf evaluations through the wrapped
    # geometry.pdf_disk_closed_form, so a disk profile's pdf must look it up
    # as a module attribute at call time, even when built before the wrap
    from finitenet import disk_region, distance_profile

    prof = distance_profile(disk_region((0.0, 0.0), 100.0), (25.0, 0.0))
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        prof.pdf(np.array([10.0, 80.0, 120.0]))
        prof.pdf(50.0)
    finally:
        tracer.restore()
    radii = [amount for _, name, amount in tracer.events
             if name == "geometry.pdf.radii"]
    assert radii == [3, 1]
    assert [s[3] for s in tracer.spans].count("geometry.pdf") == 2


def test_radial_spans_nest_in_outer_spans_on_pool_threads(monkeypatch):
    # the benchmark tells outer from radial integrals by the quadrature depth
    # on each thread; with the transform nodes on a pool every radial span
    # must still sit inside the outer span of its own node
    import finitenet.scenario as scenario_module
    from finitenet import (NakagamiChannel, Scenario, disk_region,
                           outage_mgf)

    monkeypatch.setattr(scenario_module, "_CPU_WORKERS", 2)
    sc = Scenario(region=disk_region((0.0, 0.0), 100.0),
                  receiver=(100.0, 0.0), r0=10.0, num_interferers=2,
                  channel=NakagamiChannel(m0=1.5, m=2.5), alpha=4.0,
                  beta=1.0, rho0=100.0)
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        outage_mgf(sc, rel_tol=1e-8)
    finally:
        tracer.restore()
    metrics = tracing.layer_metrics(tracer, 0.0, 0.0)
    assert metrics["quadrature.outer.calls"] == 26
    names = {sid: name for sid, _, _, name, _, _ in tracer.spans}
    radial = [parent for _, parent, _, name, _, _ in tracer.spans
              if name == "quadrature.radial"]
    assert radial
    assert all(names.get(parent) == "quadrature.outer" for parent in radial)


def test_default_width_chunks_reach_the_wrapped_hooks(monkeypatch):
    # the benchmark counts chunks by the wrapped montecarlo._rng_for_chunk and
    # times the sampler by the wrapped sample_uniform_in_region; chunks on
    # the default pool must still look both up as module attributes
    import finitenet.scenario as scenario_module
    from finitenet import (NakagamiChannel, Scenario, disk_region,
                           montecarlo)

    monkeypatch.setattr(scenario_module, "_CPU_WORKERS", 2)
    sc = Scenario(region=disk_region((0.0, 0.0), 100.0),
                  receiver=(25.0, 0.0), r0=5.0, num_interferers=1,
                  channel=NakagamiChannel(m0=1.0, m=1.0), alpha=4.0,
                  beta=1.0, rho0=100.0)
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        montecarlo.simulate_outage(sc, 2 * montecarlo.CHUNK_TRIALS + 1, 5)
    finally:
        tracer.restore()
    metrics = tracing.layer_metrics(tracer, 0.0, 0.0)
    assert metrics["montecarlo.chunks"] == 3
    assert [s[3] for s in tracer.spans].count("montecarlo.sample_uniform") == 3
