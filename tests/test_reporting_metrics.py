"""Tests for bench reporting (table rendering) and metrics."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.metrics import (
    grouped_relative_error,
    jaccard,
    mean_or_nan,
    relative_error,
    variance_or_nan,
)
from repro.bench.reporting import render_table


# ---------------------------------------------------------------------------
# render_table
# ---------------------------------------------------------------------------
def test_render_table_basic_layout():
    text = render_table(
        "Demo", ["A", "Bee"], [["x", 1.0], ["longer", 1234.5]]
    )
    lines = text.splitlines()
    assert lines[0] == "Demo"
    assert lines[1] == "===="
    assert "A" in lines[2] and "Bee" in lines[2]
    assert set(lines[3]) <= {"-", " "}
    assert "1,234.5" in text  # thousands separator for large floats
    assert "1.00" in text  # two decimals for small floats


def test_render_table_none_and_nan_become_dash():
    text = render_table("T", ["A", "B"], [[None, float("nan")]])
    row = text.splitlines()[-1]
    assert row.split() == ["-", "-"]


def test_render_table_empty_rows():
    text = render_table("T", ["Column"], [])
    assert "Column" in text


def test_render_table_notes_appended():
    text = render_table("T", ["A"], [["x"]], notes="a footnote")
    assert text.endswith("a footnote")


def test_render_table_column_alignment():
    text = render_table("T", ["A", "B"], [["aa", "b"], ["a", "bb"]])
    header, _rule, row1, row2 = text.splitlines()[2:]
    # every B cell starts at the same column
    assert header.index("B") == row1.index("b")
    assert row1.index("b") == row2.index("b")


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(
            st.one_of(
                st.none(),
                st.floats(allow_nan=True, allow_infinity=False),
                st.text(max_size=8),
                st.integers(-10**6, 10**6),
            ),
            min_size=2,
            max_size=2,
        ),
        max_size=10,
    )
)
def test_render_table_property_never_crashes(rows):
    text = render_table("T", ["A", "B"], rows)
    assert text.startswith("T\n=")
    assert len(text.splitlines()) >= 4


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def test_relative_error_conventions():
    assert relative_error(110.0, 100.0) == pytest.approx(0.1)
    assert relative_error(-90.0, -100.0) == pytest.approx(0.1)
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1.0, 0.0) == float("inf")


def test_jaccard_conventions():
    assert jaccard(set(), set()) == 1.0
    assert jaccard({1, 2}, {1, 2}) == 1.0
    assert jaccard({1, 2}, {3, 4}) == 0.0
    assert jaccard({1, 2, 3}, {2, 3, 4}) == pytest.approx(0.5)


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(0, 50)), st.sets(st.integers(0, 50)))
def test_jaccard_properties(left, right):
    value = jaccard(left, right)
    assert 0.0 <= value <= 1.0
    assert value == jaccard(right, left)  # symmetry
    assert jaccard(left, left) == 1.0


def test_mean_or_nan_skips_non_finite():
    assert mean_or_nan([1.0, float("nan"), 3.0, float("inf")]) == pytest.approx(2.0)
    assert math.isnan(mean_or_nan([]))
    assert math.isnan(mean_or_nan([float("nan")]))


def test_variance_or_nan_needs_two_values():
    assert math.isnan(variance_or_nan([1.0]))
    assert variance_or_nan([1.0, 3.0]) == pytest.approx(2.0)  # ddof=1


def test_grouped_relative_error_missing_groups_count_full():
    truth = {1.0: 10.0, 2.0: 20.0}
    estimated = {1.0: 10.0}  # group 2 missing entirely
    assert grouped_relative_error(estimated, truth) == pytest.approx(0.5)


def test_grouped_relative_error_empty_truth():
    assert grouped_relative_error({}, {}) == 0.0
    assert grouped_relative_error({1.0: 5.0}, {}) == float("inf")


def test_grouped_relative_error_perfect_match():
    groups = {1.0: 3.0, 2.0: 7.0}
    assert grouped_relative_error(dict(groups), groups) == 0.0
