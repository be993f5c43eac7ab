"""Tests for the verdict rule of compare.py.

    python3 -m pytest -q perfbench/test_compare.py
"""

from compare import verdict


def _runs(values):
    return list(enumerate(values))


def test_verdicts():
    parent = _runs([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0])
    assert verdict(parent, _runs([v * 0.8 for _, v in parent]), "lower", 0.1) == "improved"
    assert verdict(parent, _runs([v * 1.2 for _, v in parent]), "lower", 0.1) == "worse"
    assert verdict(parent, _runs([v * 1.01 for _, v in parent]), "lower", 0.1) == "unchanged"
    assert verdict(parent, _runs([v * 1.2 for _, v in parent]), "higher", 0.1) == "improved"
    noisy = _runs([8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 10.0, 9.5, 10.5])
    assert verdict(noisy, _runs([v * 1.02 for _, v in noisy]), "lower", 0.1) == "unresolved"
