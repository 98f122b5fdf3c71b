"""The benchmark's tracer wraps finitenet functions by module attribute name.

A rename of any wrapped name (say `cli.outage_mgf`, `mgf.adaptive_rows_quad`
or `mgf._euler_cdf_from_samples`) breaks the benchmark's traced run; this
test catches it in the regular suite. It also checks that `restore` puts
every original object back.
"""

import sys
from pathlib import Path

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
