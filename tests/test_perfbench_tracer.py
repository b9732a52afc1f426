"""Every name the benchmark tracer patches still exists where it looks it up.

A refactor that moves or renames a traced function would otherwise break only
``perfbench/run.py --trace 1``.  The tracer is loaded from its source, without
importing the benchmark package or writing next to it.
"""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_installs_and_uninstalls_every_patch_point():
    tracing = load_tracing()
    points = tracing._patch_points()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert len(tracer._saved) == len(points)
        for owner, attr, raw in tracer._saved:
            assert owner.__dict__[attr] is not raw
    finally:
        saved = list(tracer._saved)
        tracer.uninstall()
    for owner, attr, raw in saved:
        assert owner.__dict__[attr] is raw
