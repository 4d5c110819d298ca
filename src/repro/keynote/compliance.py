"""The KeyNote compliance checker (RFC 2704 query semantics).

A query asks: *at what compliance value does local policy authorize this
action, requested by these principals, given these credentials?*

Semantics
---------
Each principal p has a compliance value CV(p):

* if p signed the request (p is an *action authorizer*), CV(p) is the
  maximum value — the requester vouches for its own request;
* otherwise CV(p) is the maximum, over assertions authored by p, of
  ``min(value(Conditions), value(Licensees))`` — p delegates at most what
  its conditions allow, and no more than its licensees support.

The licensee expression value replaces each principal q with CV(q), with
``&&`` = minimum, ``||`` = maximum, ``K-of`` = K-th largest.  The query
result is CV(POLICY).  Delegation graphs may be cyclic; a cycle contributes
the minimum value (a chain of trust must bottom out at a requester).

Per the paper, DisCFS runs these queries with the octal-ordered value set
``false < X < W < WX < R < RX < RW < RWX`` and treats the result as a unix
permission triple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from operator import attrgetter
from typing import Iterable, Mapping

from repro.errors import SignatureVerificationError
from repro.keynote.ast import POLICY_PRINCIPAL, Assertion, ComplianceValues, normalize_principal
from repro.keynote.signing import verify_assertion

#: Reserved attribute names injected into every query (RFC 2704 section 8).
RESERVED_MIN = "_MIN_TRUST"
RESERVED_MAX = "_MAX_TRUST"
RESERVED_VALUES = "_VALUES"
RESERVED_AUTHORIZERS = "_ACTION_AUTHORIZERS"


@dataclass(eq=False, slots=True)
class _Entry:
    """One added assertion, its index guard, its insertion rank and
    whether its signature has been checked."""

    assertion: Assertion
    guard: frozenset[str] | None
    rank: int
    verified: bool


@dataclass(slots=True)
class _Bucket:
    """One authorizer's assertions in insertion order, plus an exact index
    of the guarded ones under each literal their guard requires."""

    entries: list[_Entry] = field(default_factory=list)
    unguarded: list[_Entry] = field(default_factory=list)
    by_literal: dict[str | None, list[_Entry]] = field(default_factory=dict)

    def candidates(self, index_value: str | None) -> list[_Entry]:
        """The entries that can be non-minimal when the index attribute is
        ``index_value``, in insertion order."""
        matched = self.by_literal.get(index_value)
        if not matched:
            return self.unguarded
        if not self.unguarded:
            return matched
        return sorted(self.unguarded + matched, key=attrgetter("rank"))


class ComplianceChecker:
    """Evaluates queries against a set of policies and credentials.

    ``verify_signatures`` controls whether credentials are checked before
    being considered (the DisCFS server always verifies; some tests disable
    it to exercise the evaluator in isolation).  Invalid credentials are
    excluded, matching the reference implementation's behaviour of simply
    not considering them.

    ``index_attribute`` enables an exact index: if every clause of an
    assertion's Conditions *requires* ``index_attribute == "literal"`` as
    a conjunct, the assertion can only contribute when the query's
    attribute equals one of those literals.  Each authorizer's assertions
    are filed under those literals (or as unguarded), and a query visits
    only the unguarded ones plus those filed under its own attribute
    value, in insertion order.  DisCFS indexes on ``HANDLE``, so a query's
    cost depends on the credentials for its handle, not on the thousands
    of per-file creator credentials the server holds.  Results, including
    the contributor order, are those of the unindexed checker: a skipped
    assertion would have evaluated to the minimum value.
    """

    def __init__(self, verify_signatures: bool = True,
                 index_attribute: str | None = None):
        self.verify_signatures = verify_signatures
        self.index_attribute = index_attribute
        self._buckets: dict[str, _Bucket] = {}
        self._ranks = count()

    # -- assertion management -------------------------------------------

    def add_assertion(self, assertion: Assertion, *, verified: bool = False) -> None:
        """Add a policy or credential to the checker.

        Signed credentials are verified on first use (lazily) unless
        verification is disabled, or the caller already verified the
        signature and passes ``verified=True``.
        """
        guard = None
        if self.index_attribute is not None:
            guard = _conditions_guard(assertion, self.index_attribute)
        entry = _Entry(assertion, guard, next(self._ranks), verified)
        bucket = self._buckets.setdefault(assertion.authorizer, _Bucket())
        bucket.entries.append(entry)
        if guard is None:
            bucket.unguarded.append(entry)
        for literal in guard or ():
            bucket.by_literal.setdefault(literal, []).append(entry)

    def remove_assertion(self, assertion: Assertion) -> bool:
        """Remove a previously added assertion; returns True if found."""
        bucket = self._buckets.get(assertion.authorizer, _Bucket())
        entry = next((e for e in bucket.entries if e.assertion is assertion), None)
        if entry is None:
            return False
        bucket.entries.remove(entry)
        if entry.guard is None:
            bucket.unguarded.remove(entry)
        for literal in entry.guard or ():
            listed = bucket.by_literal[literal]
            listed.remove(entry)
            if not listed:
                del bucket.by_literal[literal]
        return True

    def assertions(self) -> list[Assertion]:
        return [e.assertion for bucket in self._buckets.values() for e in bucket.entries]

    # -- query ------------------------------------------------------------

    def query(
        self,
        action: Mapping[str, str],
        action_authorizers: Iterable[str],
        values: ComplianceValues | list[str],
    ) -> str:
        """Return the compliance value of the action (CV of POLICY)."""
        value, _trace = self.query_with_trace(action, action_authorizers, values)
        return value

    def query_with_trace(
        self,
        action: Mapping[str, str],
        action_authorizers: Iterable[str],
        values: ComplianceValues | list[str],
    ) -> tuple[str, list[Assertion]]:
        """Like :meth:`query`, also returning the assertions that
        contributed authority (the authorization path of the paper's audit
        story: "key A was used and key B authorized the operation")."""
        if not isinstance(values, ComplianceValues):
            values = ComplianceValues(values)
        requesters = {normalize_principal(p) for p in action_authorizers}

        attributes = dict(action)
        attributes.setdefault(RESERVED_MIN, values.minimum)
        attributes.setdefault(RESERVED_MAX, values.maximum)
        attributes.setdefault(RESERVED_VALUES, " ".join(values.values))
        attributes.setdefault(RESERVED_AUTHORIZERS, ",".join(sorted(requesters)))

        memo: dict[str, str] = {}
        visiting: set[str] = set()
        contributors: list[Assertion] = []
        index_value = (
            attributes.get(self.index_attribute)
            if self.index_attribute is not None else None
        )

        def cv(principal: str) -> str:
            if principal in requesters:
                return values.maximum
            if principal in memo:
                return memo[principal]
            if principal in visiting:
                return values.minimum  # delegation cycle
            visiting.add(principal)
            best = values.minimum
            bucket = self._buckets.get(principal)
            for entry in bucket.candidates(index_value) if bucket else ():
                contribution = self._assertion_value(entry, attributes, values, cv)
                if contribution != values.minimum:
                    contributors.append(entry.assertion)
                best = values.max_of(best, contribution)
                if best == values.maximum:
                    break  # cannot improve further
            visiting.discard(principal)
            memo[principal] = best
            return best

        result = cv(POLICY_PRINCIPAL)
        if result == values.minimum:
            return result, []
        return result, contributors

    # -- internals ----------------------------------------------------------

    def _assertion_value(
        self,
        entry: _Entry,
        attributes: Mapping[str, str],
        values: ComplianceValues,
        cv,
    ) -> str:
        if not self._credential_acceptable(entry):
            return values.minimum
        assertion = entry.assertion
        if assertion.licensees is None:
            return values.minimum  # delegates to nobody
        # Local-Constants shadow action attributes inside this assertion.
        if assertion.local_constants:
            attributes = {**attributes, **assertion.local_constants}
        if assertion.conditions is None:
            conditions_value = values.maximum
        else:
            conditions_value = assertion.conditions.evaluate(attributes, values)
        if conditions_value == values.minimum:
            return values.minimum  # short-circuit: licensees cannot help
        licensees_value = assertion.licensees.evaluate(cv, values)
        return values.min_of(conditions_value, licensees_value)

    def _credential_acceptable(self, entry: _Entry) -> bool:
        """Verify a credential's signature once, caching the result."""
        if entry.verified or entry.assertion.is_policy or not self.verify_signatures:
            return True
        try:
            verify_assertion(entry.assertion)
        except SignatureVerificationError:
            return False
        entry.verified = True
        return True


def _conditions_guard(assertion: Assertion, attribute: str) -> frozenset[str] | None:
    """Literals ``attribute`` must equal for the conditions to be non-minimal.

    Returns None when no sound guard exists (unguarded assertions are
    always evaluated).  A guard is sound when *every* top-level clause's
    test contains, as a conjunct, a comparison ``attribute == "literal"``:
    with any other attribute value, every clause test is false and the
    program evaluates to the minimum compliance value.
    """
    from repro.keynote.expr import And, Attr, Compare, StrLit

    if assertion.conditions is None:
        return None  # empty conditions mean maximum trust: never skip
    if attribute in assertion.local_constants:
        return None  # shadowed: the action attribute is not what's tested

    def required_literal(test) -> str | None:
        if isinstance(test, Compare) and test.op == "==":
            left, right = test.left, test.right
            if isinstance(left, Attr) and left.name == attribute and \
                    isinstance(right, StrLit):
                return right.value
            if isinstance(right, Attr) and right.name == attribute and \
                    isinstance(left, StrLit):
                return left.value
            return None
        if isinstance(test, And):
            return required_literal(test.left) or required_literal(test.right)
        return None  # Or / Not / bool literals: no sound requirement

    literals: set[str] = set()
    for clause in assertion.conditions.clauses:
        literal = required_literal(clause.test)
        if literal is None:
            return None
        literals.add(literal)
    return frozenset(literals)
