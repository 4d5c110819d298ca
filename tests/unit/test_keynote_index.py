"""Unit tests for the compliance checker's handle-guard pruning index.

The index is a pure optimization: query results with and without it must
be identical (soundness), while guarded assertions whose literal does not
match are not evaluated (effectiveness).
"""

import gc
import sys
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.permissions import PERMISSION_VALUES
from repro.keynote import compliance
from repro.keynote.ast import ComplianceValues
from repro.keynote.compliance import ComplianceChecker, _conditions_guard
from repro.keynote.parser import parse_assertion

BOOL = ["false", "true"]


def make_checker(index, *texts):
    checker = ComplianceChecker(verify_signatures=False,
                                index_attribute=index)
    for text in texts:
        checker.add_assertion(parse_assertion(text))
    return checker


class TestGuardExtraction:
    def guard(self, conditions, constants=""):
        text = 'Authorizer: "a"\nLicensees: "b"\n'
        if constants:
            text = f"Local-Constants: {constants}\n" + text
        text += f"Conditions: {conditions}\n"
        return _conditions_guard(parse_assertion(text), "HANDLE")

    def test_simple_equality_guarded(self):
        assert self.guard('HANDLE == "42" -> "true";') == frozenset({"42"})

    def test_conjunction_guarded(self):
        g = self.guard('(app_domain == "DisCFS") && (HANDLE == "42") -> "true";')
        assert g == frozenset({"42"})

    def test_reversed_operands_guarded(self):
        assert self.guard('"42" == HANDLE -> "true";') == frozenset({"42"})

    def test_multiple_clauses_union(self):
        g = self.guard('HANDLE == "1" -> "true"; HANDLE == "2" -> "true";')
        assert g == frozenset({"1", "2"})

    def test_disjunction_unguarded(self):
        assert self.guard(
            '(HANDLE == "1") || (ANCESTORS ~= "x") -> "true";'
        ) is None

    def test_negation_unguarded(self):
        assert self.guard('!(HANDLE == "1") -> "true";') is None

    def test_inequality_unguarded(self):
        assert self.guard('HANDLE != "1" -> "true";') is None

    def test_unrelated_attribute_unguarded(self):
        assert self.guard('OTHER == "1" -> "true";') is None

    def test_missing_clause_guard_poisons_all(self):
        assert self.guard('HANDLE == "1" -> "W"; true -> "X";') is None

    def test_no_conditions_unguarded(self):
        text = 'Authorizer: "a"\nLicensees: "b"\n'
        assert _conditions_guard(parse_assertion(text), "HANDLE") is None

    def test_local_constant_shadowing_unguarded(self):
        assert self.guard('HANDLE == "42" -> "true";',
                          constants='HANDLE = "42"') is None


class TestIndexSoundness:
    POLICY = 'Authorizer: "POLICY"\nLicensees: "issuer"\n'

    def _credentials(self, n):
        return [
            f'Authorizer: "issuer"\nLicensees: "user{i}"\n'
            f'Conditions: HANDLE == "{i}" -> "true";\n'
            for i in range(n)
        ]

    def test_indexed_equals_unindexed(self):
        creds = self._credentials(20)
        indexed = make_checker("HANDLE", self.POLICY, *creds)
        plain = make_checker(None, self.POLICY, *creds)
        for handle in ("0", "7", "19", "99", ""):
            for user in ("user7", "user19", "stranger"):
                assert (
                    indexed.query({"HANDLE": handle}, [user], BOOL)
                    == plain.query({"HANDLE": handle}, [user], BOOL)
                )

    def test_unguarded_assertions_still_considered(self):
        checker = make_checker(
            "HANDLE",
            self.POLICY,
            'Authorizer: "issuer"\nLicensees: "u"\n'
            'Conditions: (HANDLE == "1") || (ANCESTORS ~= "(^| )9( |$)");\n',
        )
        assert checker.query({"HANDLE": "5", "ANCESTORS": "3 9"},
                             ["u"], BOOL) == "true"

    def test_query_without_index_attribute_set(self):
        """Queries lacking the attribute never match guarded assertions."""
        checker = make_checker(
            "HANDLE", self.POLICY,
            'Authorizer: "issuer"\nLicensees: "u"\n'
            'Conditions: HANDLE == "1";\n',
        )
        assert checker.query({}, ["u"], BOOL) == "false"
        assert checker.query({"HANDLE": "1"}, ["u"], BOOL) == "true"

    def test_removal_cleans_guard(self):
        """After removal no checker state refers to the assertion: it is
        gone from every index list, so the checker no longer keeps it
        alive and it no longer matches its handle."""
        checker = make_checker("HANDLE", self.POLICY)
        assertion = parse_assertion(
            'Authorizer: "issuer"\nLicensees: "u"\n'
            'Conditions: HANDLE == "1" -> "true"; HANDLE == "2" -> "true";\n'
        )
        checker.add_assertion(assertion)
        assert checker.query({"HANDLE": "1"}, ["u"], BOOL) == "true"
        assert checker.remove_assertion(assertion)
        assert checker.query({"HANDLE": "1"}, ["u"], BOOL) == "false"
        assert checker.query({"HANDLE": "2"}, ["u"], BOOL) == "false"
        assert all(a is not assertion for a in checker.assertions())
        ref = weakref.ref(assertion)
        del assertion
        gc.collect()
        assert ref() is None


class TestIndexScaling:
    """A query's work depends on the credentials for its handle only."""

    POLICY = 'Authorizer: "POLICY"\nLicensees: "issuer"\n'

    @staticmethod
    def _credential(handle, user):
        return parse_assertion(
            f'Authorizer: "issuer"\nLicensees: "{user}"\n'
            f'Conditions: (app_domain == "DisCFS") && (HANDLE == "{handle}") '
            f'-> "true";\n'
        )

    def _work(self, unrelated):
        """Lines the checker module runs, and the assertions it evaluates,
        for one query with ``unrelated`` non-matching credentials held."""
        checker = make_checker("HANDLE", self.POLICY)
        for i in range(unrelated):
            checker.add_assertion(self._credential(str(i), f"user{i}"))
        checker.add_assertion(self._credential("target", "u"))
        evaluated = []
        evaluate = checker._assertion_value

        def counting(entry, *args):
            evaluated.append(entry)
            return evaluate(entry, *args)

        checker._assertion_value = counting
        lines = 0

        def local(frame, event, arg):
            nonlocal lines
            lines += event == "line"
            return local

        def tracer(frame, event, arg):
            return local if frame.f_code.co_filename == compliance.__file__ else None

        action = {"HANDLE": "target", "app_domain": "DisCFS"}
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            value = checker.query(action, ["u"], BOOL)
        finally:
            sys.settrace(previous)
        assert value == "true"
        return lines, len(evaluated)

    def test_work_independent_of_unrelated_credentials(self):
        assert self._work(1) == self._work(1000)


OCTAL = ComplianceValues(list(PERMISSION_VALUES))
LITERALS = ("1", "2")
AUTHORIZERS = ("POLICY", "A", "B", "u0")
PRINCIPALS = ("A", "B", "u0", "u1")

_literal = st.sampled_from(LITERALS)
_value = st.sampled_from(PERMISSION_VALUES[1:])
_principal = st.sampled_from(PRINCIPALS)

_conditions = st.one_of(
    st.builds('HANDLE == "{}" -> "{}";'.format, _literal, _value),
    st.builds('(app_domain == "DisCFS") && (HANDLE == "{}") -> "{}";'.format,
              _literal, _value),
    st.builds('HANDLE == "{}" -> "{}"; "{}" == HANDLE -> "{}";'.format,
              _literal, _value, _literal, _value),
    st.builds('(HANDLE == "{}") || (ANCESTORS ~= "(^| ){}( |$)") -> "{}";'.format,
              _literal, _literal, _value),
    st.builds('app_domain == "DisCFS" -> "{}";'.format, _value),
    st.none(),
)
_licensees = st.one_of(
    st.builds('"{}"'.format, _principal),
    st.builds('"{}" || "{}"'.format, _principal, _principal),
    st.builds('"{}" && "{}"'.format, _principal, _principal),
    st.builds('2-of("{}", "{}", "{}")'.format, _principal, _principal, _principal),
)


@st.composite
def _assertion_text(draw):
    text = (f'Authorizer: "{draw(st.sampled_from(AUTHORIZERS))}"\n'
            f"Licensees: {draw(_licensees)}\n")
    conditions = draw(_conditions)
    return text + (f"Conditions: {conditions}\n" if conditions else "")


_operations = st.lists(st.one_of(
    st.tuples(st.just("add"), _assertion_text()),
    st.tuples(st.just("add"), _assertion_text()),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("query"), st.one_of(st.none(), _literal),
              st.lists(_principal, min_size=1, max_size=2),
              st.sampled_from(["", "1", "2"])),
), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(initial=st.lists(_assertion_text(), max_size=12), operations=_operations)
def test_property_indexed_trace_matches_unindexed(initial, operations):
    """The indexed checker returns the unindexed checker's value and the
    very same contributors in the same order, through guarded, multi-
    literal and unguarded assertions, delegation chains and cycles,
    interleaved removals, and queries with and without HANDLE."""
    indexed = ComplianceChecker(verify_signatures=False, index_attribute="HANDLE")
    plain = ComplianceChecker(verify_signatures=False)
    added = []
    for op in [("add", text) for text in initial] + operations:
        if op[0] == "add":
            assertion = parse_assertion(op[1])
            added.append(assertion)
            indexed.add_assertion(assertion)
            plain.add_assertion(assertion)
        elif op[0] == "remove":
            if added:
                assertion = added.pop(op[1] % len(added))
                assert indexed.remove_assertion(assertion)
                assert plain.remove_assertion(assertion)
        else:
            _, handle, requesters, ancestors = op
            _assert_same_trace(indexed, plain, handle, requesters, ancestors)
    for handle in (None, *LITERALS):
        for requester in PRINCIPALS:
            _assert_same_trace(indexed, plain, handle, [requester], "1")


def _assert_same_trace(indexed, plain, handle, requesters, ancestors):
    action = {"app_domain": "DisCFS", "ANCESTORS": ancestors}
    if handle is not None:
        action["HANDLE"] = handle
    got_value, got = indexed.query_with_trace(action, requesters, OCTAL)
    want_value, want = plain.query_with_trace(action, requesters, OCTAL)
    assert got_value == want_value
    assert [id(a) for a in got] == [id(a) for a in want]
