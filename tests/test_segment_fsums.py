"""segment_fsums against math.fsum, bit for bit and error for error, and the tree's path sums above its cut-off."""

import math
from operator import mul
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treerisk import scenario, uniform_binomial
from treerisk.scenario import segment_fsums

CUTOFF = scenario._FSUMS_CUTOFF
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def outcome(call):
    """The float.hex of every sum, or the error raised first."""
    try:
        return [float.hex(v) for v in call()]
    except (OverflowError, ValueError) as exc:
        return repr(exc)


def expected(segments):
    return outcome(lambda: [math.fsum(seg) for seg in segments])


def ties(n):
    """Integers and half-integers, also offset by 2**53, where every half is a tie."""
    halves = st.lists(st.integers(-64, 64).map(lambda k: k / 2), min_size=n, max_size=n)
    return st.tuples(halves, st.sampled_from([0.0, 2.0**53, -(2.0**53)])).map(
        lambda pair: [pair[1], *pair[0]][:n]
    )


def pairs(n):
    """+x and -x, some perturbed by 1e-15, so sums cancel to nothing or to a few ulps."""
    pair = st.tuples(st.floats(-1.0, 1.0), st.sampled_from([0.0, 1e-15, -1e-15]))
    flat = st.lists(pair, min_size=(n + 1) // 2, max_size=(n + 1) // 2).map(
        lambda ps: [v for x, d in ps for v in (x, -x * (1.0 + d))][:n]
    )
    return flat.flatmap(st.permutations)


def mixed(n):
    """Scales mixed between 1e-12 and 1e12."""
    scaled = st.tuples(st.floats(-1.0, 1.0), st.sampled_from([1e-12, 1.0, 1e12])).map(lambda p: mul(*p))
    return st.lists(scaled, min_size=n, max_size=n)


def subnormals(n):
    tiny = st.one_of(st.integers(-(2**20), 2**20).map(lambda k: k * 5e-324), st.sampled_from([2.0**-1022, -(2.0**-1060)]))
    return st.lists(tiny, min_size=n, max_size=n)


def zeros(n):
    return st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n)


def huge(n):
    """Values near 1e308, whose sums overflow."""
    return st.lists(st.sampled_from([1e308, -1e308, 1.7e308, -8.9e307, 1.0]), min_size=n, max_size=n)


def nonfinite(n):
    return st.lists(st.sampled_from([math.inf, -math.inf, math.nan, 1.0, -2.5]), min_size=n, max_size=n)


def plain(n):
    return st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)


def crowded(n):
    """One sign, all near the largest term: partial sums reach n times it."""
    seeds = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([1.0, -1.0]))  # every mantissa bit drawn
    return seeds.map(lambda p: (p[1] * np.random.default_rng(p[0]).uniform(0.5, 1.0, size=n)).tolist())


def boundary(n):
    """2**j, minus half the gap below it, minus a remainder far below: the sum sits just under
    a tie at a power of two, where the gaps on the two sides differ."""
    parts = st.tuples(st.integers(-30, 30), st.integers(2, 60), st.sampled_from([1.0, -1.0]))
    return parts.map(lambda p: ([2.0 ** p[0], -(2.0 ** (p[0] - 54)), -p[2] * 2.0 ** (p[0] - 54 - p[1])] + [0.0] * n)[:n])


KINDS = (ties, pairs, mixed, subnormals, zeros, huge, nonfinite, plain, crowded, boundary)
# single terms, and lengths at 2**M - 1 and 2**M: the longest segment sets M
LENGTHS = st.sampled_from([1, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64])


@st.composite
def segment_lists(draw, length=LENGTHS):
    """Segments of one or two kinds: mixed kinds share one scale, so most calls keep to one."""
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=2, unique=True))
    count = draw(st.integers(1, 12))
    return [draw(draw(st.sampled_from(kinds))(draw(length))) for _ in range(count)]


def ragged(segments):
    starts = [0]
    for seg in segments[:-1]:
        starts.append(starts[-1] + len(seg))
    return np.array([v for seg in segments for v in seg], float), starts


# Hypothesis also draws literals from the source under test, so the drawn examples move whenever
# src/ gains a constant; these shapes run whatever it draws: a list of starts with an empty segment,
# max|v| just below 2**(999 - M) (M = 2 for three terms) and at 2**-900, and short sibling families
# as a tree's probability check sums them
PINNED_RUNS = [
    [[1.0, -1.0], [], [0.5, 2.0**-60]],
    [[math.nextafter(2.0**997, 0.0), -(2.0**996), 1.0], [2.0**996]],
    [[2.0**-900, 2.0**-953, -(2.0**-901)], [-(2.0**-900)]],
    [[0.5, 0.5], [0.3, 0.3, 0.4 + 1e-13], [1.0], [0.25] * 4, [0.1] * 10],
]


@SETTINGS
@given(segment_lists())
@example(PINNED_RUNS[0])
@example(PINNED_RUNS[1])
@example(PINNED_RUNS[2])
@example(PINNED_RUNS[3])
def test_runs_match_fsum(segments):
    terms, starts = ragged(segments)
    with mock.patch.object(scenario, "_FSUMS_CUTOFF", 0):  # the certified route at any size
        assert outcome(lambda: segment_fsums(terms, starts)) == expected(segments)


@SETTINGS
@given(LENGTHS.flatmap(lambda n: segment_lists(st.just(n))))
def test_columns_match_fsum(segments):
    rows = np.array(segments, float)
    with mock.patch.object(scenario, "_FSUMS_CUTOFF", 0):
        assert outcome(lambda: segment_fsums(rows.T)) == expected(segments)
        assert outcome(lambda: segment_fsums(np.ascontiguousarray(rows.T))) == expected(segments)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(segment_lists(), st.sampled_from([-1, 0, 1]), st.integers(0, 2**32 - 1))
@example([[1.0]], -1, 0)  # CUTOFF - 1 terms, then CUTOFF: each side of the cutoff
@example([[1.0]], 0, 0)
@example(PINNED_RUNS[3], 0, 1)
def test_totals_on_both_sides_of_the_cutoff(segments, side, seed):
    size = sum(map(len, segments))
    filler = np.random.default_rng(seed).normal(size=max(CUTOFF + side - size, 1)).tolist()
    segments = [*segments, filler]
    terms, starts = ragged(segments)
    assert outcome(lambda: segment_fsums(terms, starts)) == expected(segments)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128])
def test_crowded_segments_at_powers_of_two(n):
    """n terms of one sign near the largest, n at 2**M - 1 and 2**M: exact only if n < 2**M."""
    rng = np.random.default_rng(n)
    segments = [(sign * rng.uniform(0.5, 1.0, size=n)).tolist() for sign in (1.0, -1.0) for _ in range(20)]
    terms, starts = ragged(segments)
    with mock.patch.object(scenario, "_FSUMS_CUTOFF", 0):
        assert outcome(lambda: segment_fsums(np.array(segments).T)) == expected(segments)
        assert outcome(lambda: segment_fsums(terms, starts)) == expected(segments)


def test_empty_segments_read_zero():
    terms = np.random.default_rng(1).normal(size=CUTOFF)
    starts = [0, 0, 500, 500, CUTOFF]
    segments = [[], terms[:500].tolist(), [], terms[500:].tolist(), []]
    assert outcome(lambda: segment_fsums(terms, starts)) == expected(segments)


def test_one_run_given_as_a_list():
    """A list of starts with one entry: its run length is an integer, so an uncertified run slices the terms."""
    with mock.patch.object(scenario, "_FSUMS_CUTOFF", 0):
        assert outcome(lambda: segment_fsums(np.array([1.0, -1.0]), [0])) == expected([[1.0, -1.0]])
        assert outcome(lambda: segment_fsums(np.array([0.5, 2.0**-60]), [0])) == expected([[0.5, 2.0**-60]])


def test_normal_data_takes_the_certified_route(monkeypatch):
    """Above the cut-off, ordinary sums are certified: no segment falls back to fsum."""
    rng = np.random.default_rng(2)
    calls = []
    monkeypatch.setattr(scenario, "fsum", lambda terms: calls.append(1) or math.fsum(terms))
    rows = rng.normal(size=(6, 2047))
    assert outcome(lambda: segment_fsums(rows)) == expected(rows.T.tolist())
    terms = rng.normal(size=30_000) * rng.uniform(size=30_000)
    starts = list(range(0, 30_000, 1250))
    assert outcome(lambda: segment_fsums(terms, starts)) == expected(np.split(terms, starts[1:]))
    assert calls == []


def test_path_sums_above_the_cutoff():
    """A depth-11 tree's path sums against fsum along each leaf's path."""
    rng = np.random.default_rng(3)
    tree = uniform_binomial(11)
    picked = [nid for nid in tree.order if rng.uniform() < 0.7]
    rows = rng.normal(size=(len(picked), 2)) * rng.choice([1e-12, 1.0, 1e12], size=(len(picked), 1))
    node = np.array([tree.index[nid] for nid in picked], np.intp)
    [(leaves, sums)] = tree.path_sums(node, rows, [(0, len(picked))])
    at = dict(zip(picked, rows.tolist()))
    dfs = tree.leaves_under(tree.root)
    want = {}
    for d, leaf in enumerate(dfs):
        path = [nid for nid in tree.path(leaf) if nid in at]
        if path:
            want[d] = math.fsum(t for nid in path for t in at[nid])
    assert leaves.tolist() == list(want)
    assert [float.hex(v) for v in sums.tolist()] == [float.hex(v) for v in want.values()]
