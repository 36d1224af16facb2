"""The verdicts of ``tools/ab.py``'s ``summarize`` on synthetic pairs."""

import importlib.util
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "ab.py"))
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def _pairs(parent: list[float], change: list[float]) -> list[dict]:
    return [{"parent": {"values": {"m": p}}, "change": {"values": {"m": c}}}
            for p, c in zip(parent, change)]


def _verdict(parent, change, better="lower", bound=0.25):
    return ab.summarize(_pairs(parent, change), {"m": better}, {"m": bound})["m"]["verdict"]


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_nine_wins_and_a_gap_beyond_the_parent_iqr_is_a_gain():
    change = [v - 0.1 for v in PARENT]
    change[3] = 1.5  # one loss of ten
    assert _verdict(PARENT, change) == "gain"
    assert _verdict(PARENT, [v + 0.1 for v in PARENT], better="higher") == "gain"


def test_ties_count_for_neither_side():
    change = [v - 0.1 for v in PARENT]
    change[0], change[1] = PARENT[0], PARENT[1]  # 8 wins, 2 ties
    assert _verdict(PARENT, change) == "unchanged"


def test_a_median_beyond_the_bound_is_worse():
    assert _verdict(PARENT, [v * 1.3 for v in PARENT]) == "worse"
    assert _verdict(PARENT, [v * 1.2 for v in PARENT]) == "unchanged"
    assert _verdict(PARENT, [v * 0.7 for v in PARENT], better="higher") == "worse"


def test_without_a_bound_any_worse_median_is_worse():
    zeros = [0.0] * 10
    assert _verdict(zeros, [0.0] * 6 + [0.1] * 4, bound=None) == "unchanged"
    assert _verdict(zeros, [0.0] * 4 + [0.1] * 6, bound=None) == "worse"
    assert _verdict(zeros, zeros, bound=None) == "unchanged"


@pytest.mark.parametrize("noisy", ["parent", "change"])
def test_a_spread_beyond_the_bound_is_unresolved(noisy):
    wide = [0.6, 0.7, 0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 1.3, 1.4]
    sides = {"parent": PARENT, "change": PARENT, noisy: wide}
    assert _verdict(sides["parent"], sides["change"]) == "unresolved"


def test_every_change_run_beating_every_parent_run_is_resolved():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # IQR above 25%
    # every run below 1.0, but the medians' gap is inside the parent's IQR
    change = [0.9, 0.8, 0.7, 0.6, 0.5] + [0.95] * 5
    assert _verdict(parent, change) == "unchanged"
    assert _verdict(parent, [v + 1.0 for v in parent]) == "worse"
