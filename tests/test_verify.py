"""Exhaustive verification: the verbatim listing's outcome counts, as the docs state them."""

import pathlib

import pytest

from trigather.verify import verify_sweep

ROOT = pathlib.Path(__file__).resolve().parent.parent


# the printed listing replayed verbatim: 392 disconnected + 1365 livelock:1 starts
VERBATIM_OUTCOMES = {"gathered": 1895, "disconnected": 392, "livelock:1": 1365}


def test_verbatim_listing_strands_or_stalls_1757_starts():
    summary, failure_traces = verify_sweep(7, "gather2-verbatim")
    assert summary.outcome_counts == VERBATIM_OUTCOMES
    assert (summary.total, len(summary.failures), len(failure_traces)) == (3652, 1757, 1757)


@pytest.mark.parametrize("doc", ["README.md", "docs/transcription-notes.md"])
def test_docs_state_the_verbatim_failure_count(doc):
    text = " ".join((ROOT / doc).read_text().split())
    assert "strands or stalls 1757 of the 3652" in text
