import importlib
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logconformal.errors import EmptyCorpus, InvalidSpec
from logconformal.parsers import (DrainParams, IPLoMParams, LogClusterParams,
                                  SpellParams, fit, match_record,
                                  params_from_dict)
from logconformal.templates import WILDCARD, EventTemplate, TemplateSet

import perline_miners
from conftest import make_record, template_set

ALL_PARSERS = ("drain", "spell", "iplom", "logcluster")


def _corpus(rows):
    return [make_record(i + 1, tokens) for i, tokens in enumerate(rows)]


def _params(name):
    """Defaults, except a logcluster support small enough for tiny corpora."""
    return LogClusterParams(min_support=2) if name == "logcluster" else None


def _fit_of(name):
    """``fit_<name>`` of module ``<name>``, imported the way ``fit`` does."""
    return getattr(importlib.import_module(f"logconformal.parsers.{name}"),
                   f"fit_{name}")


def _groups(name, params, records):
    """The miner's (template_tokens, member_ids) groups."""
    return _fit_of(name)(records, **(params or params_from_dict(name, None))._asdict())


def _assert_partition(records, groups):
    """Every record is in exactly one group."""
    assert sorted(i for _, ids in groups for i in ids) == \
        sorted(r.line_id for r in records)


def _members(records, groups):
    """(template, record) for every member of every group."""
    by_id = {r.line_id: r for r in records}
    return [(EventTemplate(template_id="T", tokens=tuple(tokens)), by_id[i])
            for tokens, ids in groups for i in ids]


def _literals_in_order(tmpl, tokens) -> bool:
    it = iter(tokens)
    return all(lit in it for lit in tmpl.tokens if lit != WILDCARD)


def _assert_built_from(ts, groups):
    assert [(t.template_id, t.tokens, t.support) for t in ts.templates] == \
        [(f"T{k}", tuple(tokens), len(ids)) for k, (tokens, ids) in enumerate(groups, 1)]


MIXED_ROWS = [
    ["open", "file", "A"], ["open", "file", "B"],
    ["open", "file", "C"], ["open", "file", "A"],
    ["close", "conn", "1"], ["close", "conn", "2"],
    ["close", "conn", "3"], ["close", "conn", "1"],
    ["send", "ack"], ["send", "ack"],
]


class TestFit:
    @pytest.mark.parametrize("name", ("drain", "spell", "iplom"))
    def test_singleton_corpus(self, name):
        records = _corpus([["Send", "done"]])
        ts = fit(name, None, records)
        assert [(t.tokens, t.support) for t in ts.templates] == [(("Send", "done"), 1)]
        assert [(list(tokens), ids) for tokens, ids in _groups(name, None, records)] \
            == [(["Send", "done"], [1])]

    def test_singleton_corpus_logcluster_gap(self):
        # with min_support >= 2 a lone record has no frequent words, so the
        # whole line collapses to one wildcard
        ts = fit("logcluster", None, _corpus([["Send", "done"]]))
        assert [(t.tokens, t.support) for t in ts.templates] == [((WILDCARD,), 1)]

    def test_drain_merges_on_similarity(self):
        ts = fit("drain", DrainParams(depth=4, sim_threshold=0.5),
                 _corpus([["Load", "a.ini", "ok"], ["Load", "b.ini", "ok"]]))
        assert [(t.tokens, t.support) for t in ts.templates] == \
            [(("Load", WILDCARD, "ok"), 2)]

    def test_iplom_partitions_by_position(self):
        ts = fit("iplom", None, _corpus([["open", "file", "A"],
                                         ["open", "file", "B"],
                                         ["close", "conn", "1"],
                                         ["close", "conn", "2"]]))
        assert [t.tokens for t in ts.templates] == \
            [("open", "file", WILDCARD), ("close", "conn", WILDCARD)]

    def test_spell_lcs_merge(self):
        ts = fit("spell", SpellParams(lcs_threshold=0.5),
                 _corpus([["Load", "a.ini", "ok"], ["Load", "b.ini", "ok"],
                          ["Send", "done"]]))
        assert [t.tokens for t in ts.templates] == \
            [("Load", WILDCARD, "ok"), ("Send", "done")]

    def test_logcluster_frequent_words(self):
        rows = [["job", f"id{i}", "done"] for i in range(6)]
        ts = fit("logcluster", LogClusterParams(min_support=3), _corpus(rows))
        assert [t.tokens for t in ts.templates] == [("job", WILDCARD, "done")]
        assert ts.templates[0].support == 6

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            fit("drain", None, [])

    def test_unknown_parser(self):
        with pytest.raises(InvalidSpec, match="unknown parser 'nope'"):
            fit("nope", None, _corpus([["a"]]))

    def test_untokenized_record_rejected(self):
        with pytest.raises(ValueError):
            fit("drain", None, [make_record(1, [])])

    @pytest.mark.parametrize("name, params, takes", [
        ("spell", DrainParams(), "SpellParams"),
        ("drain", {"depth": 4}, "DrainParams"),
        ("iplom", LogClusterParams(), "IPLoMParams"),
        ("logcluster", SpellParams(), "LogClusterParams"),
    ])
    def test_params_of_another_class_rejected(self, name, params, takes):
        """Checked before the records are read, so no miner runs: an empty
        corpus still gets the params error."""
        for records in (_corpus([["a", "b"]]), []):
            with pytest.raises(InvalidSpec, match=rf"^{name} takes {takes}, got "):
                fit(name, params, records)


class TestParamsFromDict:
    def test_overrides_applied(self):
        assert params_from_dict("drain", {"depth": 5, "sim_threshold": 0.4}) == \
            DrainParams(depth=5, sim_threshold=0.4)
        assert params_from_dict("spell", None) == SpellParams()

    def test_int_accepted_for_float(self):
        params = params_from_dict("iplom", {"partition_support_threshold": 0})
        assert params == IPLoMParams(partition_support_threshold=0)

    @pytest.mark.parametrize("name, overrides", [
        ("drain", {"bogus": 1}),
        ("drain", {"depth": "x"}),
        ("drain", {"depth": 4.0}),
        ("drain", {"depth": True}),
        ("drain", {"depth": 2}),
        ("spell", {"lcs_threshold": "0.5"}),
        ("spell", {"lcs_threshold": float("nan")}),
        ("logcluster", {"min_support": 1}),
        ("iplom", [("lower_bound", 0.1)]),
        ("drain", []),
        ("drain", False),
    ])
    def test_invalid_overrides_rejected(self, name, overrides):
        with pytest.raises(InvalidSpec):
            params_from_dict(name, overrides)

    def test_unknown_parser(self):
        with pytest.raises(InvalidSpec, match=r"^unknown parser 'nope' "
                                              r"\(known: drain, spell, iplom, logcluster\)$"):
            params_from_dict("nope", {})

    @pytest.mark.parametrize("params, bad", [
        (DrainParams(), {"depth": 2}),
        (SpellParams(), {"lcs_threshold": 1.0}),
        (IPLoMParams(), {"upper_bound": 2.0}),
        (LogClusterParams(), {"min_support": 1}),
    ])
    def test_replace_validates_as_the_constructor_does(self, params, bad):
        for build in (type(params), params._replace):
            with pytest.raises(ValueError):
                build(**bad)


class TestDefaultsDeclaredOnce:
    """Each parameter default lives only on its params class."""

    @pytest.mark.parametrize("name", ALL_PARSERS)
    def test_params_fields_are_required_keywords(self, name):
        records, *rest = inspect.signature(_fit_of(name)).parameters.values()
        assert records.name == "records"
        assert [(p.kind, p.default) for p in rest] == \
            [(inspect.Parameter.KEYWORD_ONLY, inspect.Parameter.empty)] * len(rest)
        assert [p.name for p in rest] == \
            list(type(params_from_dict(name, None))._fields)

    def test_drain_tree_has_no_defaults(self):
        from logconformal.parsers.drain import DrainTree
        assert all(p.default is inspect.Parameter.empty
                   for p in inspect.signature(DrainTree).parameters.values())


class TestPartitionProperties:
    @pytest.mark.parametrize("name", ALL_PARSERS)
    def test_every_record_assigned_once(self, name):
        records = _corpus(MIXED_ROWS)
        groups = _groups(name, _params(name), records)
        _assert_partition(records, groups)
        _assert_built_from(fit(name, _params(name), records), groups)

    @pytest.mark.parametrize("name", ("drain", "spell", "iplom"))
    def test_templates_match_assigned_records(self, name):
        records = _corpus(MIXED_ROWS)
        for tmpl, rec in _members(records, _groups(name, None, records)):
            assert tmpl.matches(rec.tokens)

    @pytest.mark.parametrize("name", ALL_PARSERS)
    def test_monotone_specialization(self, name):
        records = _corpus(MIXED_ROWS)
        for tmpl, rec in _members(records, _groups(name, _params(name), records)):
            assert _literals_in_order(tmpl, rec.tokens), (name, rec.tokens, tmpl)

    @pytest.mark.parametrize("name", ALL_PARSERS)
    def test_fit_deterministic(self, name):
        records = _corpus(MIXED_ROWS)
        a = fit(name, _params(name), records)
        b = fit(name, _params(name), records)
        assert [(t.template_id, t.tokens, t.support) for t in a.templates] == \
            [(t.template_id, t.tokens, t.support) for t in b.templates]
        assert _groups(name, _params(name), records) == \
            _groups(name, _params(name), records)

    def test_parsers_disagree_freely(self):
        # heterogeneity: each parser honors its own invariants; template
        # counts may differ across parsers and that is fine
        records = _corpus(MIXED_ROWS)
        counts = {}
        for name in ALL_PARSERS:
            counts[name] = len(fit(name, _params(name), records).templates)
        assert all(c >= 1 for c in counts.values())

    @given(st.lists(st.lists(st.sampled_from(
        ["alpha", "beta", "gamma", "x1", "7", "go", WILDCARD]),
        min_size=1, max_size=5), min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_partition_holds_on_random_corpora(self, rows):
        records = _corpus(rows)
        for name in ALL_PARSERS:
            groups = _groups(name, _params(name), records)
            _assert_partition(records, groups)
            _assert_built_from(fit(name, _params(name), records), groups)
            for tmpl, rec in _members(records, groups):
                assert tmpl.tokens
                assert _literals_in_order(tmpl, rec.tokens), (name, rec.tokens, tmpl)
                if name != "logcluster":
                    assert tmpl.matches(rec.tokens), (name, rec.tokens, tmpl)


class TestMatchRecord:
    def _trained(self):
        return fit("spell", None, _corpus([["Load", "a.ini", "ok"],
                                           ["Load", "b.ini", "ok"],
                                           ["Send", "done"]]))

    def test_exact_match(self):
        ts = self._trained()
        assert match_record(ts, make_record(5, ["Send", "done"])) == "T2"

    def test_nearest_template(self):
        ts = self._trained()
        assert match_record(ts, make_record(5, ["Load", "x.ini", "ok"])) == "T1"

    def test_lexicographic_tie_break(self):
        ts = template_set([("T2", ("a", "b")), ("T10", ("a", "b"))])
        assert match_record(ts, make_record(1, ["a", "b"])) == "T10"

    def test_empty_set_returns_none(self):
        ts = TemplateSet(parser_name="drain", parser_params={})
        assert match_record(ts, make_record(1, ["a"])) is None


PERLINE = {"drain": perline_miners.fit_drain, "spell": perline_miners.fit_spell,
           "iplom": perline_miners.fit_iplom,
           "logcluster": perline_miners.fit_logcluster}

# defaults and non-defaults for every parameter
PARAM_GRID = {
    "drain": [DrainParams(depth=d, sim_threshold=s, max_children=c)
              for d in (3, 4, 5) for s in (0.3, 0.5, 0.7) for c in (2, 3, 100)],
    "spell": [SpellParams(lcs_threshold=t) for t in (0.3, 0.5, 0.7)],
    "iplom": [IPLoMParams(partition_support_threshold=p, lower_bound=lo,
                          upper_bound=up)
              for p in (0.0, 0.05, 0.2) for lo in (0.25, 0.5, 0.9)
              for up in (0.0, 0.6, 0.9, 1.0)],
    "logcluster": [LogClusterParams(min_support=m) for m in (2, 3, 10)],
}

# a few distinct sequences, drawn many times over: the shape of real logs
repeated_corpora = st.lists(
    st.lists(st.sampled_from(["alpha", "beta", "gamma", "x1", "x2", "7", "go",
                              WILDCARD]), min_size=1, max_size=5),
    min_size=1, max_size=8, unique_by=tuple,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60))


class TestPerLineEquivalence:
    """Visiting each distinct token sequence once changes no template,
    support or group membership against the per-line miners."""

    @staticmethod
    def _assert_same_as_perline(name, params, rows):
        records = _corpus(rows)
        oracle = PERLINE[name](records, **params._asdict())
        assert [(t.template_id, t.tokens, t.support)
                for t in fit(name, params, records).templates] == \
            [(f"T{k}", tuple(tokens), len(ids))
             for k, (tokens, ids) in enumerate(oracle, 1)]
        assert [(tuple(tokens), sorted(ids))
                for tokens, ids in _groups(name, params, records)] == \
            [(tuple(tokens), sorted(ids)) for tokens, ids in oracle]

    @pytest.mark.parametrize("params, rows", [
        # "<*>" never counts as a match, so each line misses the cluster
        # the line before it seeded
        (DrainParams(), ["<*> <*> a", "<*> <*> a", "<*> <*> a"]),
        # a new cluster adds the literal child "go", which takes the last
        # record away from the wildcard leaf it joined before
        (DrainParams(depth=4, sim_threshold=0.5),
         ["<*> b c", "go b c", "go z z", "go b c"]),
        # "a b z d e" wildcards the literals that tied "a b c s t" to its
        # cluster, so the other cluster of that leaf is now more similar
        (DrainParams(depth=3, sim_threshold=0.3),
         ["a b c d e", "a q r s t", "a b c s t", "a b c s t", "a b z d e",
          "a b c s t"]),
    ])
    def test_drain_repeat_that_takes_another_path(self, params, rows):
        self._assert_same_as_perline("drain", params, [r.split() for r in rows])

    @pytest.mark.parametrize("name", ALL_PARSERS)
    @given(data=st.data(), rows=repeated_corpora)
    @settings(max_examples=300, deadline=None)
    def test_same_groups_as_perline_miner(self, name, data, rows):
        params = data.draw(st.sampled_from(PARAM_GRID[name]))
        self._assert_same_as_perline(name, params, rows)
