"""The benchmark tracer's hold on the library: every name it rebinds must
exist, be called through on a traced solve, and come back unchanged."""

import importlib.util
from pathlib import Path

from scnptree import benders, cli, generate_instance

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_rebinds_and_restores_every_library_name():
    tracing = load_tracing()
    bindings = [(module, attr) for module, attr, _, _ in tracing._BINDINGS]
    originals = [getattr(module, attr) for module, attr in bindings]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module, attr), original in zip(bindings, originals):
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
        cli.solve_instance(generate_instance(6, "type1", 1), "benders", {})
    finally:
        tracer.uninstall()
    for (module, attr), original in zip(bindings, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
    # the cut loop still calls every name rebound in its module
    traced = {span[0] for span in tracer.spans}
    for module, attr, name, _ in tracing._BINDINGS:
        if module is benders:
            assert name in traced, f"benders.{attr}"
