"""The benchmark's tracer wraps kuni functions by module and attribute name
(perfbench/tracing.py: SPANS, HOT, GENERATORS).  Installing and removing its
wrappers on a fresh Tracer finds every one of those names, so deleting or
renaming a wrapped function fails here, not only in a traced benchmark run.

The probe runs in its own interpreter: an install that stops at a missing
name leaves the wrappers it had already set in place."""

import os
import subprocess
import sys
from pathlib import Path

import kuni

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import tracing
import kuni.cli

def bindings():
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "kuni" or name.startswith("kuni."):
            for attr, value in vars(module).items():
                out[name, attr] = value
                if isinstance(value, type):
                    out.update(((name, attr, a), v) for a, v in vars(value).items())
    return out

before = bindings()
replaced = tracing.install(tracing.Tracer())
tracing.uninstall(replaced)
after = bindings()
assert after.keys() == before.keys()
assert all(after[key] is value for key, value in before.items()), "not restored"
print(len(replaced))
"""


def test_tracer_installs_and_uninstalls_on_every_wrapped_name():
    env = dict(os.environ, PYTHONPATH=str(Path(kuni.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(PERFBENCH)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
