"""The real repository must lint clean against its committed baseline.

This is the self-hosting test: the analyzer runs over the actual tree
(not fixtures) inside tier-1, so a PR that introduces a violation
fails the test suite locally exactly as the CI ``lint-gate`` job
would.  One scan of the tree is shared by every test here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import DEFAULT_BASELINE, compare, load_baseline, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def lint_result():
    return run_lint(REPO_ROOT)


def test_repo_lints_clean_against_committed_baseline(lint_result):
    baseline = load_baseline(REPO_ROOT / DEFAULT_BASELINE)
    delta = compare(lint_result.counts, baseline)
    assert delta.ok, (
        "new lint findings beyond the committed baseline:\n"
        + "\n".join(
            f.render() for f in lint_result.findings if f.key in delta.new
        )
    )


def test_baseline_is_tight(lint_result):
    """The ratchet only means something if the baseline stays small
    and honest: few grandfathered keys, none of them stale."""
    baseline = load_baseline(REPO_ROOT / DEFAULT_BASELINE)
    assert len(baseline) <= 3, (
        f"baseline has grown to {len(baseline)} grandfathered keys — "
        "fix findings instead of widening the baseline"
    )
    live = lint_result.counts
    stale = {k: v for k, v in baseline.items() if live.get(k, 0) < v}
    assert not stale, (
        f"baseline entries exceed live counts {stale} — run "
        "`repro lint --write-baseline` to lock the improvement in"
    )


def test_scan_covers_the_whole_tree(lint_result):
    assert lint_result.files_scanned > 150  # src/ + tests/ today; grows
