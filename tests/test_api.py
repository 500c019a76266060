"""Every name a module exports through ``__all__`` resolves, and the
README's library example runs and prints what its comments state."""

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import diffpos

MODULES = sorted(f"diffpos.{m.name}" for m in pkgutil.iter_modules(diffpos.__path__))
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_readme_library_example_states_its_results(capsys):
    (example,) = [block for block in re.findall(r"```python\n(.*?)```", README.read_text(),
                                                re.S) if "dnls_ladder" in block]
    namespace = {}
    exec(compile(example, str(README), "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()  # four prints, LLS over two lines
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
