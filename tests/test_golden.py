"""Report bytes pinned across commits (see tests/golden.py)."""

from .golden import compute_digests, load_pinned


def test_golden_digests_match_pinned():
    pinned = load_pinned()
    got = compute_digests()
    assert sorted(got) == sorted(pinned)
    changed = sorted(k for k in pinned if got[k] != pinned[k])
    assert not changed, f"output bytes changed for {changed}"
