"""Trace grammar: parsing, condition checklist, round-trip, abstention."""

import re

import pytest
from conftest import trace_texts
from hypothesis import given, settings
from hypothesis import strategies as st

from claimkit.corpus import Label
from claimkit.trace import (
    CONDITION_IDS,
    Cycle,
    Trace,
    is_abstention,
    parse_trace,
    render_trace,
)

TAG = re.compile(r"</?(think|question|answer|verification)>")


def _body(min_size=0):
    """Block content as the parser returns it: stripped, holding no tag."""
    return st.text().map(str.strip).filter(lambda s: len(s) >= min_size and not TAG.search(s))


traces = st.builds(
    Trace,
    initial_think=_body(),
    cycles=st.lists(st.builds(Cycle, question=_body(1), answer=_body(1),
                              post_think=st.none() | _body()), min_size=1, max_size=5),
    verdict=st.sampled_from([Label.SUPPORTED, Label.REFUTED]),
)

VALID = (
    "<think>analyze the claim</think>\n"
    "<question>Was the move in 1921?</question>\n"
    "<answer>Yes, the document says 1921.</answer>\n"
    "<think>one sub-claim left</think>\n"
    "<question>Did she move to Paris?</question>\n"
    "<answer>Yes, to Paris.</answer>\n"
    "<verification>Supported</verification>"
)


class TestParse:
    def test_valid_trace_all_conditions(self):
        report = parse_trace(VALID)
        assert all(ok for _, ok in report.conditions)
        assert report.satisfied_fraction() == 1.0
        assert report.trace is not None
        assert report.trace.verdict is Label.SUPPORTED
        assert len(report.trace.cycles) == 2
        assert report.trace.cycles[0].post_think == "one sub-claim left"

    def test_condition_ids_fixed(self):
        assert len(CONDITION_IDS) == 10
        report = parse_trace(VALID)
        assert [cid for cid, _ in report.conditions] == list(CONDITION_IDS)

    def test_empty_input_scores_zero(self):
        report = parse_trace("")
        assert report.satisfied_fraction() == 0.0
        assert report.trace is None

    def test_trailing_prose_costs_one_condition(self):
        report = parse_trace(VALID + "\nPS: extra commentary")
        cmap = report.condition_map()
        assert not cmap["nothing_after_verdict"]
        assert report.satisfied_fraction() == 0.9
        assert report.trace is not None  # still reconstructable

    def test_single_cycle_misses_min_two(self):
        text = ("<think>t</think><question>q?</question><answer>a</answer>"
                "<verification>Refuted</verification>")
        report = parse_trace(text)
        cmap = report.condition_map()
        assert not cmap["min_two_cycles"]
        assert report.trace is not None
        assert report.trace.verdict is Label.REFUTED

    def test_missing_think(self):
        text = ("<question>q?</question><answer>a</answer>"
                "<question>q2?</question><answer>b</answer>"
                "<verification>Supported</verification>")
        cmap = parse_trace(text).condition_map()
        assert not cmap["has_think"]
        assert not cmap["think_before_question"]

    def test_unbalanced_counts(self):
        text = ("<think>t</think><question>q?</question>"
                "<question>q2?</question><answer>a</answer>"
                "<verification>Supported</verification>")
        cmap = parse_trace(text).condition_map()
        assert not cmap["qa_counts_equal"]
        assert not cmap["qa_alternation"]

    def test_empty_answer_breaks_alternation(self):
        text = ("<think>t</think><question>q?</question><answer>  </answer>"
                "<verification>Supported</verification>")
        assert not parse_trace(text).condition_map()["qa_alternation"]

    def test_invalid_verdict_text(self):
        text = VALID.replace("Supported", "Probably")
        report = parse_trace(text)
        assert not report.condition_map()["valid_verdict"]
        assert report.verdict is None
        assert report.raw_verdict_text == "Probably"

    def test_two_verification_blocks(self):
        text = VALID + "<verification>Refuted</verification>"
        report = parse_trace(text)
        assert not report.condition_map()["one_verification"]
        assert report.verdict is None

    def test_stray_tag_breaks_nesting(self):
        report = parse_trace(VALID + "\n<answer>")
        assert not report.condition_map()["well_nested"]
        assert report.trace is None

    def test_nested_tag_breaks_nesting(self):
        text = VALID.replace("Yes, to Paris.", "Yes <think>inner</think> indeed.")
        assert not parse_trace(text).condition_map()["well_nested"]

    def test_unknown_tags_are_free_text(self):
        text = VALID.replace("analyze the claim", "analyze <sub>the</sub> claim")
        report = parse_trace(text)
        assert report.condition_map()["well_nested"]
        assert report.trace is not None

    def test_best_effort_extraction_on_malformed(self):
        text = "<question>only q?</question> stray prose"
        report = parse_trace(text)
        assert report.trace is None
        assert report.questions == ["only q?"]
        assert report.answers == []


class TestRoundTrip:
    def test_render_parse_round_trip(self):
        trace = Trace(
            initial_think="break it down",
            cycles=[
                Cycle(question="Q one?", answer="A one.", post_think="next"),
                Cycle(question="Q two?", answer="A two."),
            ],
            verdict=Label.REFUTED,
        )
        report = parse_trace(render_trace(trace))
        assert report.trace == trace
        assert report.satisfied_fraction() == 1.0


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(trace_texts)
    def test_parse_is_total(self, text):
        report = parse_trace(text)
        assert [cid for cid, _ in report.conditions] == list(CONDITION_IDS)
        assert 0.0 <= report.satisfied_fraction() <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(traces)
    def test_render_parse_round_trip(self, trace):
        report = parse_trace(render_trace(trace))
        assert report.trace == trace
        assert report.questions == [c.question for c in trace.cycles]
        assert report.answers == [c.answer for c in trace.cycles]


class TestAbstention:
    @pytest.mark.parametrize("answer, expected", [
        ("I don't know", True),
        ("i do not know.", True),
        ("Honestly, I DON'T KNOW about that one.", True),
        ("I don’t know", True),  # curly apostrophe
        ("The answer is Paris.", False),
        ("Unknown.", False),
    ])
    def test_cases(self, answer, expected):
        assert is_abstention(answer) is expected
