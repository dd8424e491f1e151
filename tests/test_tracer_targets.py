"""The benchmark's tracer (``perfbench/tracer.py``) times layers by replacing
package attributes by name.  Its self-test only patches ``numerics``,
``thermo`` and ``forces``, so a renamed or deleted target elsewhere would
crash only the traced figure run; this test reads the tracer's list and
checks every target."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PATCHES


def test_every_tracer_patch_target_is_bound():
    patches = _patches()
    assert patches
    for mod_name, attr, *_ in patches:
        mod = importlib.import_module(f"deltacasimir.{mod_name}")
        assert callable(getattr(mod, attr, None)), f"deltacasimir.{mod_name}.{attr}"
