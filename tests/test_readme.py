"""The README's library example runs against the current API and prints what
its comments say."""

import contextlib
import io
import math
import re
from pathlib import Path

import numpy as np

from zenopath import PhaseParams, critical_points

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_and_land_on_the_critical_point():
    # every block, in order, in one namespace, as a reader would run them
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks, "README.md has no python block"
    namespace = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    lines = printed.getvalue().splitlines()
    # print(path[-1])  ~ (0, -0.666, 0.745)
    end = namespace["path"][-1]
    assert lines[0] == str(end)
    np.testing.assert_allclose(end, [0.0, -0.666, 0.745], rtol=0.0, atol=1e-2)
    # the diffusive most-likely path lands on the same point
    theta1 = critical_points(PhaseParams(omega_s=0.5, lam=1.5)).theta1
    coords = namespace["mlp_fixed_point"](namespace["dp"]).coords()
    assert lines[-1] == str(coords)
    np.testing.assert_allclose(coords, [0.0, math.sin(theta1), math.cos(theta1)],
                               rtol=0.0, atol=1e-12)
