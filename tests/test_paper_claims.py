"""The paper's claims about each fast experiment hold at seed 0, or say why not.

Every driver in ``repro.bench.experiments`` checks its claims against the
rows it returns.  A claim the rows contradict must carry a ``why_not``
with the numbers, and a claim that holds must not: a stale reason fails
here, so it is removed once the implementation meets the claim.
"""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS

#: drivers left to CI's "Paper claims" step: claims that read a wall-clock
#: column (Tables VIII, X, XII, XIII and scaling) would flake under load,
#: and Tables VI and VII run every method on every workload query (~40 s)
OUTSIDE_TIER1 = {"table6", "table7", "table8", "table10", "table12", "table13", "scaling"}


@pytest.mark.parametrize("name", [name for name in EXPERIMENTS if name not in OUTSIDE_TIER1])
def test_each_claim_holds_or_says_why_not(name):
    result = EXPERIMENTS[name](seed=0)
    assert result.claims
    for claim in result.claims:
        if claim.holds:
            assert claim.why_not is None, f"{name}: stale reason on a holding claim: {claim.text}"
        else:
            assert claim.why_not, f"{name}: claim fails: {claim.text}"
        assert f"- {claim.text}: {claim.verdict}" in result.text
