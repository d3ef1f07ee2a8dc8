"""The benchmark's tracer still finds every name it wraps in the package."""

import os
import subprocess
import sys

import dhyper

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dhyper.__file__)))
BENCH = os.path.join(os.path.dirname(SRC), "bench")


def test_tracer_installs_and_every_counted_result_resolves():
    # install() patches the package in place, so it runs in its own process;
    # the _AFTER targets are read by name, so each must still name an
    # attribute; the commutative counters read _groebner_cached.cache_info(),
    # and the second toric ideal of A hits the cache only if it hashes as
    # the first
    script = (
        "import functools, importlib, sys\n"
        f"sys.path[:0] = [{SRC!r}, {BENCH!r}]\n"
        "import tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "for target in tracing._AFTER:\n"
        "    layer, *path = target.split('.')\n"
        "    functools.reduce(getattr, path, importlib.import_module('dhyper.' + layer))\n"
        "from dhyper import exact, systems\n"
        "tracer.active = True\n"
        "a = exact.IntMatrix.from_rows([[1, 1, 1, 1], [0, 1, 3, 4]])\n"
        "systems.toric_ideal(a).groebner()\n"
        "assert tracer.counters['groebner.comm_basis_size'] > 0, tracer.counters\n"
        "systems.toric_ideal(a).groebner()\n"
        "assert tracer.counters['groebner.comm_cache_hits'] == 1, tracer.counters\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
