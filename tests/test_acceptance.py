"""Acceptance suite: every headline criterion at its stated scale.

Each test prints one PASS/FAIL line (run pytest with -s to see them all in
order); the same checks back the ``towerlab accept`` subcommand.
"""

import os
import re

import numpy as np
import pytest

from towerlab import acceptance


@pytest.mark.parametrize("num,check", acceptance.CHECKS,
                         ids=[f"criterion_{n}" for n, _ in acceptance.CHECKS])
def test_acceptance_criterion(num, check):
    res = check()
    status = "PASS" if res.passed else "FAIL"
    print(f"\n[{status}] criterion {num}: {res.name} "
          f"({res.detail}) [{res.seconds:.1f}s]")
    assert res.passed, f"criterion {num}: {res.name} -- {res.detail}"
    # the time is in ``seconds``; a detail that held it would differ
    # between runs of unchanged code
    assert not re.search(r"\d\s*s\b", res.detail), res.detail


# -- criterion 11 can fail -----------------------------------------------------

# suspension.sample_stationary draws from np.random.Philox(key=seed)

def test_unseeded_generator_fails_criterion_11(monkeypatch):
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda key: philox())
    res = acceptance.check_determinism()
    assert not res.passed, res.detail


@pytest.mark.parametrize("salt, passed", [
    ("12345", True),                          # the same in every process
    ("hash('towerlab') & 0xFFFFFFFF", False),  # follows PYTHONHASHSEED
])
def test_hash_seed_dependence_fails_criterion_11(monkeypatch, tmp_path,
                                                 salt, passed):
    # plant the same salted generator in this process and, through
    # sitecustomize, in the fresh interpreter that criterion 11 starts
    patch = ("import numpy as np\n"
             "_philox = np.random.Philox\n"
             f"np.random.Philox = lambda key: _philox(key=key ^ ({salt}))\n")
    (tmp_path / "sitecustomize.py").write_text(patch)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [str(tmp_path), os.environ.get("PYTHONPATH")])))
    monkeypatch.setattr(np.random, "Philox", np.random.Philox)  # undone after
    exec(patch, {})
    res = acceptance.check_determinism()
    assert res.passed == passed, res.detail
    if not passed:   # the two runs in this process agree
        assert res.detail == "3 runs, 2 distinct outputs"
