"""The benchmark's tracer still finds every name it wraps in the package."""

import os
import subprocess
import sys

import dhyper

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dhyper.__file__)))
BENCH = os.path.join(os.path.dirname(SRC), "bench")


def test_tracer_installs_and_every_counted_result_resolves():
    # install() patches the package in place, so it runs in its own process;
    # the _AFTER targets are read by name, so each must still name an attribute
    script = (
        "import functools, importlib, sys\n"
        f"sys.path[:0] = [{SRC!r}, {BENCH!r}]\n"
        "import tracing\n"
        "tracing.Tracer().install()\n"
        "for target in tracing._AFTER:\n"
        "    layer, *path = target.split('.')\n"
        "    functools.reduce(getattr, path, importlib.import_module('dhyper.' + layer))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
