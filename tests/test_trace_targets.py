"""The traced benchmark run looks functions up by name on the package; a
rename or removal there must fail here, not only under `--trace 1`."""

import functools
import importlib.util
import sys
from pathlib import Path

import owa_explorer
import owa_explorer.pipeline  # noqa: F401  (not imported by the package itself)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    missing = []
    for owner_path, attr, _, _ in _targets():
        try:
            owner = functools.reduce(getattr, owner_path.split("."), owa_explorer)
        except AttributeError:
            missing.append(owner_path)
            continue
        if not hasattr(owner, attr):
            missing.append(f"{owner_path}.{attr}")
    assert not missing, f"trace targets missing from owa_explorer: {missing}"
