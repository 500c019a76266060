"""Every name a module exports through ``__all__`` resolves, and every
``python`` block of the README runs and prints what its comments state."""

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import diffpos

MODULES = sorted(f"diffpos.{m.name}" for m in pkgutil.iter_modules(diffpos.__path__))
README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def run_block(keyword, capsys):
    """The namespace and printed lines of the README block holding
    ``keyword``."""
    (block,) = [block for block in BLOCKS if keyword in block]
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    return namespace, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_every_readme_python_block_has_a_test():
    # The tests below run each: the point queries and the kernels.
    assert len(BLOCKS) == 2
    assert all(sum(keyword in block for block in BLOCKS) == 1
               for keyword in ("enumerate_mpcs", "dnls_ladder"))


def test_readme_point_query_example_states_its_results(capsys):
    _, lines = run_block("enumerate_mpcs", capsys)
    # MPC3 at 25.419 m, MPC3 at 22.508 m, MPC1 at 21.903 m.
    assert [line.split()[0] for line in lines] == ["MpcGroup.MPC3", "MpcGroup.MPC3",
                                                   "MpcGroup.MPC1"]
    assert [round(float(line.split()[1]), 3) for line in lines] == [25.419, 22.508, 21.903]


def test_readme_library_example_states_its_results(capsys):
    namespace, lines = run_block("dnls_ladder", capsys)  # four prints, LLS over two lines
    assert len(lines) == 5 and lines[3].startswith("0 [")
    d, solved, peb_m, rx = (namespace[k] for k in ("d", "solved", "peb_m", "rx"))
    # 25.329 m via (5.953, 0, 7.5), off the endpoints.
    assert round(float(d.length[0]), 3) == 25.329
    np.testing.assert_allclose(d.point[0], [5.953, 0.0, 7.5], atol=5e-4)
    assert not d.endpoint[0]
    # rung 0, close to rx; a finite bound.
    assert solved.rung.tolist() == [0]
    assert np.linalg.norm(solved.alpha[0] - rx) < 0.01
    assert peb_m.shape == (1,) and 0.0 < peb_m[0] < 1.0
