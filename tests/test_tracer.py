"""The benchmark's tracer finds every graphlab binding it wraps.

``perfbench/tracer.py`` wraps functions by module and name; a rename in
the package would otherwise surface only when a traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path
import sys

import graphlab.cli  # noqa: F401  (the tracer looks modules up in sys.modules)
import graphlab.diagnose  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall_restore_every_binding():
    tracer_module = _load_tracer()
    bindings = tracer_module.FUNCTIONS + tracer_module.KERNELS
    originals = {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for _, mod, attr in bindings
    }
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for (mod, attr), original in originals.items():
            assert getattr(sys.modules[mod], attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    for (mod, attr), original in originals.items():
        assert getattr(sys.modules[mod], attr) is original
