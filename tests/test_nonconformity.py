import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logconformal.errors import EmptyTemplateSet
from logconformal.nonconformity import (DELETE, INSERT, REPLACE, ScoreParams,
                                        edit_script, nearest, weighted_score)
from logconformal.templates import WILDCARD, EventTemplate, TemplateSet

from conftest import make_record


def naive_min_edits(a, b):
    """Plain recursive minimal edit count; no tables, no backtrace."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    head = 0 if (a[0] == WILDCARD or a[0] == b[0]) else 1
    return min(naive_min_edits(a[1:], b[1:]) + head,
               naive_min_edits(a[1:], b) + 1,
               naive_min_edits(a, b[1:]) + 1)


class TestEditScript:
    def test_identical(self):
        assert edit_script(["a", "b"], ["a", "b"]) == ()

    def test_wildcard_matches_for_free(self):
        s = edit_script(["Load", WILDCARD, "failed!"], ["Load", "cfg.ini", "failed!"])
        assert len(s) == 0

    def test_single_replace_position(self):
        assert edit_script(["a", "b", "c"], ["a", "x", "c"]) == ((REPLACE, 2),)

    def test_single_insert_position(self):
        assert edit_script(["a", "b"], ["a", "b", "c"]) == ((INSERT, 3),)

    def test_delete_would_be_index(self):
        assert edit_script(["a", "b", "c"], ["a", "c"]) == ((DELETE, 2),)

    def test_empty_sides(self):
        assert edit_script([], ["x", "y"]) == ((INSERT, 1), (INSERT, 2))
        assert edit_script(["x", "y"], []) == ((DELETE, 1), (DELETE, 1))

    def test_exhaustive_against_naive_recursion(self):
        # all pairs up to length 3 over two literals and the wildcard
        alphabet = ("u", "v", WILDCARD)
        seqs = [()]
        for k in (1, 2, 3):
            new = []
            for s in seqs:
                if len(s) == k - 1:
                    new.extend(s + (tok,) for tok in alphabet)
            seqs.extend(new)
        for a in seqs:
            for b in seqs:
                assert len(edit_script(a, b)) == naive_min_edits(a, b), (a, b)

    @given(st.lists(st.sampled_from(["a", "b", "c", "d", WILDCARD]), max_size=7),
           st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=7))
    @settings(max_examples=300, deadline=None)
    def test_random_pairs_match_naive_recursion(self, a, b):
        assert len(edit_script(a, b)) == naive_min_edits(tuple(a), tuple(b))

    def test_ops_invariant_n(self):
        # one op per unit of edit distance, each a (kind, position) pair
        assert edit_script(["p", "q"], ["x", "y", "z"]) == \
            ((INSERT, 1), (REPLACE, 2), (REPLACE, 3))


class TestWeightedScore:
    def test_identity_zero(self):
        assert weighted_score(["a", "b"], ["a", "b"], ScoreParams(5.0)) == 0.0

    def test_spot_value_replace(self):
        got = weighted_score(["a", "b", "c"], ["a", "x", "c"], ScoreParams(3.0))
        assert got == pytest.approx(0.7311, abs=1e-4)

    def test_spot_value_insert(self):
        got = weighted_score(["a", "b"], ["a", "b", "c"], ScoreParams(2.5))
        assert got == pytest.approx(0.3775, abs=1e-4)

    def test_default_center_is_mean_length(self):
        explicit = weighted_score(["a", "b", "c"], ["a", "x", "c"], ScoreParams(3.0))
        assert weighted_score(["a", "b", "c"], ["a", "x", "c"]) == explicit

    def test_score_bounds(self):
        a, b = ["a", "b", "c", "d"], ["w", "x", "y", "z"]
        n = len(edit_script(a, b))
        got = weighted_score(a, b, ScoreParams(2.0))
        assert 0.0 <= got < n

    def test_score_approaches_n_for_large_center(self):
        a, b = ["a", "b"], ["x", "y"]
        n = len(edit_script(a, b))
        assert weighted_score(a, b, ScoreParams(1e6)) == pytest.approx(n, abs=1e-9)

    def test_positional_monotonicity(self):
        base = ["t1", "t2", "t3", "t4", "t5", "t6"]
        params = ScoreParams(3.0)
        scores = []
        for k in range(len(base)):
            record = list(base)
            record[k] = "zz"
            scores.append(weighted_score(base, record, params))
        assert all(x > y for x, y in zip(scores, scores[1:]))

    def test_invalid_center_rejected(self):
        with pytest.raises(ValueError):
            ScoreParams(0.0)

    @given(st.lists(st.sampled_from(["a", "b", WILDCARD]), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_identity_property(self, tokens):
        assert weighted_score(tokens, tokens) == 0.0


class TestNearest:
    def _set(self, template_map):
        ts = TemplateSet(parser_name="drain", parser_params={})
        for tid, tokens in template_map.items():
            ts.templates.append(EventTemplate(template_id=tid, tokens=tuple(tokens)))
        return ts

    def test_zero_distance_wins(self):
        ts = self._set({"T1": ("Send", "done"), "T2": ("other", "thing")})
        assert nearest(ts, make_record(1, ["Send", "done"]).tokens) == ("T1", 0.0)

    def test_hand_computed_scores(self):
        ts = self._set({"T1": ("Load", WILDCARD, "ok"), "T2": ("Send", "done")})
        record = make_record(1, ["Load", "x.ini", "ok"])
        assert nearest(ts, record.tokens) == ("T1", 0.0)
        # T2 needs three ops at record positions 1, 2 and 3 with center 2.5
        expected = sum(1.0 / (1.0 + math.exp(x - 2.5)) for x in (1, 2, 3))
        assert weighted_score(("Send", "done"), record.tokens) == \
            pytest.approx(expected, abs=1e-9)

    def test_tie_breaks_lexicographically(self):
        ts = self._set({"T2": ("a", "b"), "T10": ("a", "b")})
        # string order, not numeric order
        assert nearest(ts, make_record(1, ["a", "b"]).tokens) == ("T10", 0.0)

    def test_empty_set_rejected(self):
        ts = TemplateSet(parser_name="drain", parser_params={})
        with pytest.raises(EmptyTemplateSet):
            nearest(ts, make_record(1, ["a"]).tokens)
