"""Sufficiency estimation, iterative focus re-construction, and verbalization."""

from __future__ import annotations

import pytest

from tablefocus import gateway as gw
from tablefocus.content import (
    estimate_information,
    mechanical_description,
    reconstruct_focus,
    verbalize,
)
from tablefocus.normalize import skip_normalization
from tablefocus.sqlrows import RowSet
from tablefocus.structure import construct_focus
from tablefocus.trace import ReasoningTrace

from conftest import RIDERS_TABLE, make_gateway

NORM = skip_normalization(RIDERS_TABLE)
ALL_ROWS = RowSet(indices=tuple(range(6)))
RANKED = ("Country", "Wins", "Rider")


def _focus(columns=("Rider",)):
    return construct_focus(NORM, ALL_ROWS, list(columns))


class TestEstimateInformation:
    def test_affirmative(self):
        lm = make_gateway({"information_estimation": ["Yes, that suffices."]})
        assert estimate_information(_focus(), "q", lm, ReasoningTrace()) is True

    def test_negative(self):
        lm = make_gateway({"information_estimation": ["No - missing the wins."]})
        assert estimate_information(_focus(), "q", lm, ReasoningTrace()) is False

    def test_unparseable_defaults_to_sufficient(self):
        lm = make_gateway({"information_estimation": ["hmm, perhaps"]})
        trace = ReasoningTrace()
        assert estimate_information(_focus(), "q", lm, trace=trace) is True
        assert any("defaulted to sufficient" in w for w in trace.warnings)


class TestReconstructFocus:
    def test_sufficient_on_first_pass(self):
        lm = make_gateway({"information_estimation": ["Yes"]})
        focus = reconstruct_focus(NORM, "q", ALL_ROWS, ("Rider",), RANKED, lm, ReasoningTrace())
        assert focus.table.headers == ("Rider",)
        assert focus.reconstruction_count == 0

    def test_grows_until_sufficient(self):
        lm = make_gateway({"information_estimation": ["No", "No", "Yes"]})
        focus = reconstruct_focus(NORM, "q", ALL_ROWS, ("Rider",), RANKED, lm, ReasoningTrace())
        # Candidates are appended in ranked order: Country first, then Wins.
        assert set(focus.table.headers) == {"Rider", "Country", "Wins"}
        assert focus.reconstruction_count == 2

    def test_stops_when_candidates_exhausted(self):
        lm = make_gateway({"information_estimation": ["No", "No", "No"]})
        focus = reconstruct_focus(NORM, "q", ALL_ROWS, ("Rider",), RANKED, lm, ReasoningTrace())
        assert focus.reconstruction_count == 2
        assert focus.table.column_count == 3

    def test_one_estimation_per_iteration(self):
        lm = make_gateway({"information_estimation": ["No", "Yes", "spare"]})
        trace = ReasoningTrace()
        reconstruct_focus(NORM, "q", ALL_ROWS, ("Rider",), RANKED, lm, trace=trace)
        estimations = [s for s in trace.steps if s["template_id"] == "information_estimation"]
        assert len(estimations) == 2

    def test_rows_are_frozen(self):
        rows = RowSet(indices=(1, 3))
        lm = make_gateway({"information_estimation": ["No", "Yes"]})
        focus = reconstruct_focus(NORM, "q", rows, ("Rider",), RANKED, lm, ReasoningTrace())
        assert [row[0] for row in focus.table.rows] == ["Paolo Conti", "Hans Weber"]

    def test_empty_initial_columns_rejected(self):
        lm = make_gateway({"information_estimation": ["Yes"]})
        with pytest.raises(ValueError):
            reconstruct_focus(NORM, "q", ALL_ROWS, (), RANKED, lm, ReasoningTrace())


class TestVerbalize:
    def test_reply_used_and_hash_bound(self):
        # The request is keyed by the focus's own markdown, so the reply is bound to that focus.
        lm = make_gateway({"verbalization": ["Six riders with win counts."]})
        focus = _focus(("Rider", "Wins"))
        trace = ReasoningTrace()
        got = verbalize(focus, lm, trace=trace)
        assert got == "Six riders with win counts."
        expected = lm.build_request("verbalization", {"table": focus.markdown})
        assert trace.steps[0]["request_key"] == gw.request_key(expected)

    def test_empty_reply_uses_mechanical_fallback(self):
        lm = make_gateway({"verbalization": ["   "]})
        trace = ReasoningTrace()
        focus = _focus(("Rider",))
        got = verbalize(focus, lm, trace=trace)
        assert got == mechanical_description(focus)
        assert any("mechanical" in w for w in trace.warnings)

    def test_mechanical_description_format(self):
        focus = construct_focus(NORM, RowSet(indices=(0,)), ["Rider", "Wins"])
        assert mechanical_description(focus) == "Row 1: Rider=Jacky Martin; Wins=3."

    def test_mechanical_description_no_rows(self):
        focus = construct_focus(NORM, RowSet(indices=()), ["Rider"])
        assert "no rows" in mechanical_description(focus)
