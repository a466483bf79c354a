"""Exhaustive verification: decisions per distinct view, and the verbatim listing's outcomes."""

import hashlib
import pathlib

import pytest

from trigather import engine, verify
from trigather.cli import summary_csv_rows
from trigather.engine import View
from trigather.verify import verify_sweep

ROOT = pathlib.Path(__file__).resolve().parent.parent


# the printed listing replayed verbatim: 392 disconnected + 1365 livelock:1 starts
VERBATIM_OUTCOMES = {"gathered": 1895, "disconnected": 392, "livelock:1": 1365}
# the bytes `trigather verify --n 7 --algorithm gather2-verbatim` writes
VERBATIM_SUMMARY_CSV_SHA256 = "e332550b47a00bd5ef8c6b4c47ce76e1c30130f220932cfde8bb47c1e57fce98"
# every failures/config-<id>.trace, as its name line then its bytes, in config order
VERBATIM_TRACES_SHA256 = "087519c118dcbb5c4264070bade33261358fb9b99103edb9a8745e6e15cafd89"


@pytest.fixture(scope="module")
def verbatim():
    return verify_sweep(7, "gather2-verbatim")


def test_verbatim_listing_strands_or_stalls_1757_starts(verbatim):
    summary, failure_traces = verbatim
    assert summary.outcome_counts == VERBATIM_OUTCOMES
    assert (summary.total, len(summary.failures), len(failure_traces)) == (3652, 1757, 1757)


def test_verbatim_summary_and_traces_pinned(verbatim):
    summary, failure_traces = verbatim
    text = "\n".join(summary_csv_rows(summary)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == VERBATIM_SUMMARY_CSV_SHA256
    digest = hashlib.sha256()
    for idx, lines in failure_traces:
        digest.update(f"config-{idx}.trace\n".encode())
        digest.update(("\n".join(lines) + "\n").encode())
    assert digest.hexdigest() == VERBATIM_TRACES_SHA256


@pytest.mark.parametrize("doc", ["README.md", "docs/transcription-notes.md"])
def test_docs_state_the_verbatim_failure_count(doc):
    text = " ".join((ROOT / doc).read_text().split())
    assert "strands or stalls 1757 of the 3652" in text


def test_sweep_decides_once_per_distinct_view(monkeypatch):
    expected, _ = verify_sweep(7, "gather2-v1")
    decide, visibility = verify.ALGORITHMS["gather2-v1"]
    seen = []

    def counting(view):
        seen.append(view.occupied)
        return decide(view)

    monkeypatch.setitem(verify.ALGORITHMS, "gather2-v1", (counting, visibility))
    summary, failure_traces = verify_sweep(7, "gather2-v1")
    assert len(seen) == len(set(seen)) == 5188
    assert summary.results == expected.results
    assert failure_traces == []


@pytest.mark.parametrize("algorithm", sorted(verify.ALGORITHMS))
def test_sweep_decides_on_masks_alone(monkeypatch, algorithm):
    """The sweep and both decision functions never build a view's label set."""

    def refuse(view):
        raise AssertionError("View.occupied read during the sweep")

    monkeypatch.setattr(View, "occupied", property(refuse))
    summary, failure_traces = verify_sweep(7, algorithm)
    expected = {"gather2-v1": {"gathered": 3652}, "gather2-verbatim": VERBATIM_OUTCOMES}
    assert summary.outcome_counts == expected[algorithm]
    assert len(failure_traces) == 3652 - summary.gathered


@pytest.mark.parametrize("algorithm", sorted(verify.ALGORITHMS))
def test_sweep_keeps_no_view_alive(monkeypatch, algorithm):
    """Only ``observe`` interns views: the sweep's views die with their decisions.

    The verbatim sweep's 1757 failure traces take their moves from the
    table too, so no failing start is simulated through ``observe``.
    """
    monkeypatch.setitem(engine._VIEWS, 2, {})
    summary, failure_traces = verify_sweep(7, algorithm)
    expected = {"gather2-v1": (3652, 0), "gather2-verbatim": (1895, 1757)}
    assert (summary.gathered, len(failure_traces)) == expected[algorithm]
    assert engine._VIEWS[2] == {}
