import os
import subprocess
import sys

import numpy as np
import pytest

import canoncover


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_cloud(rng, d=None, n=None, low=0.0, high=1.0):
    d = d if d is not None else int(rng.integers(1, 5))
    n = n if n is not None else int(rng.integers(1, 17))
    return rng.uniform(low, high, size=(d, n))


def run_python(script, *args):
    """Run `script` in a fresh interpreter that imports this checkout's
    canoncover."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(canoncover.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env)
