"""The benchmark's tracer wraps package attributes by name
(`bench/tracing.py`): every name it lists must exist, and `uninstall` must
put every original back, so a renamed function fails here rather than
only in a traced benchmark run.
"""

import sys
from pathlib import Path

from scipy.sparse import csgraph

from rhglab import analysis, cli, explorer, graphs, measure, sampler

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracing import COUNTED, CSGRAPH_COUNTED, SPANNED, Tracer, _resolve  # noqa: E402

MODULES = {"sampler": sampler, "graphs": graphs, "analysis": analysis,
           "explorer": explorer, "measure": measure, "cli": cli}


def test_tracer_install_uninstall_restores_every_attribute():
    slots = [_resolve(MODULES, path) for path, _ in SPANNED + COUNTED]
    slots += [(csgraph, attr) for attr in CSGRAPH_COUNTED]
    originals = [owner.__dict__[attr] for owner, attr in slots]
    tracer = Tracer(MODULES, csgraph)
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(slots, originals))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(slots, originals))
