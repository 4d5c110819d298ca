"""Unit tests for the compliance checker (query semantics)."""

import pytest

from repro.crypto.keycodec import encode_public_key
from repro.keynote import compliance
from repro.keynote.compliance import ComplianceChecker
from repro.keynote.parser import parse_assertion
from repro.keynote.signing import sign_assertion, verify_assertion

BOOL = ["false", "true"]
OCTAL = ["false", "X", "W", "WX", "R", "RX", "RW", "RWX"]


def checker_with(*assertion_texts, verify=False):
    checker = ComplianceChecker(verify_signatures=verify)
    for text in assertion_texts:
        checker.add_assertion(parse_assertion(text))
    return checker


class TestDirectAuthorization:
    def test_policy_licensee_is_requester(self):
        c = checker_with('Authorizer: "POLICY"\nLicensees: "alice"\n')
        assert c.query({}, ["alice"], BOOL) == "true"
        assert c.query({}, ["bob"], BOOL) == "false"

    def test_no_assertions_means_min(self):
        c = ComplianceChecker()
        assert c.query({}, ["anyone"], BOOL) == "false"

    def test_conditions_cap_policy(self):
        c = checker_with(
            'Authorizer: "POLICY"\nLicensees: "alice"\n'
            'Conditions: op == "read" -> "RX";\n'
        )
        assert c.query({"op": "read"}, ["alice"], OCTAL) == "RX"
        assert c.query({"op": "write"}, ["alice"], OCTAL) == "false"

    def test_empty_conditions_is_max(self):
        c = checker_with('Authorizer: "POLICY"\nLicensees: "alice"\n')
        assert c.query({}, ["alice"], OCTAL) == "RWX"

    def test_no_licensees_delegates_nothing(self):
        c = checker_with('Authorizer: "POLICY"\n')
        assert c.query({}, ["alice"], BOOL) == "false"


class TestDelegationChains:
    def test_two_hop_chain(self):
        c = checker_with(
            'Authorizer: "POLICY"\nLicensees: "admin"\n',
            'Authorizer: "admin"\nLicensees: "bob"\n',
        )
        assert c.query({}, ["bob"], BOOL) == "true"

    def test_chain_minimum_rule(self):
        # admin grants bob RX; bob grants alice RWX — alice gets RX at most.
        c = checker_with(
            'Authorizer: "POLICY"\nLicensees: "admin"\n',
            'Authorizer: "admin"\nLicensees: "bob"\nConditions: true -> "RX";\n',
            'Authorizer: "bob"\nLicensees: "alice"\nConditions: true -> "RWX";\n',
        )
        assert c.query({}, ["alice"], OCTAL) == "RX"

    def test_delegator_can_narrow(self):
        c = checker_with(
            'Authorizer: "POLICY"\nLicensees: "admin"\n',
            'Authorizer: "admin"\nLicensees: "bob"\nConditions: true -> "RWX";\n',
            'Authorizer: "bob"\nLicensees: "alice"\nConditions: true -> "X";\n',
        )
        assert c.query({}, ["alice"], OCTAL) == "X"
        assert c.query({}, ["bob"], OCTAL) == "RWX"

    def test_long_chain(self):
        texts = ['Authorizer: "POLICY"\nLicensees: "p0"\n']
        for i in range(10):
            texts.append(f'Authorizer: "p{i}"\nLicensees: "p{i+1}"\n')
        c = checker_with(*texts)
        assert c.query({}, ["p10"], BOOL) == "true"
        assert c.query({}, ["p11"], BOOL) == "false"

    def test_broken_chain(self):
        c = checker_with(
            'Authorizer: "POLICY"\nLicensees: "admin"\n',
            'Authorizer: "stranger"\nLicensees: "alice"\n',
        )
        assert c.query({}, ["alice"], BOOL) == "false"

    def test_multiple_paths_take_max(self):
        c = checker_with(
            'Authorizer: "POLICY"\nLicensees: "a" || "b"\n',
            'Authorizer: "a"\nLicensees: "user"\nConditions: true -> "X";\n',
            'Authorizer: "b"\nLicensees: "user"\nConditions: true -> "RW";\n',
        )
        assert c.query({}, ["user"], OCTAL) == "RW"

    def test_cycle_terminates_at_min(self):
        c = checker_with(
            'Authorizer: "POLICY"\nLicensees: "a"\n',
            'Authorizer: "a"\nLicensees: "b"\n',
            'Authorizer: "b"\nLicensees: "a"\n',
        )
        # a delegates only to b, b back to a: no path reaches a requester.
        assert c.query({}, ["nobody"], BOOL) == "false"
        # but a requester inside the cycle still works
        assert c.query({}, ["b"], BOOL) == "true"

    def test_threshold_licensees(self):
        c = checker_with(
            'Authorizer: "POLICY"\nLicensees: 2-of("a", "b", "c")\n'
        )
        assert c.query({}, ["a"], BOOL) == "false"
        assert c.query({}, ["a", "c"], BOOL) == "true"


class TestReservedAttributes:
    def test_values_and_bounds_available(self):
        c = checker_with(
            'Authorizer: "POLICY"\nLicensees: "alice"\n'
            'Conditions: _VALUES == "false true" && '
            '_MIN_TRUST == "false" && _MAX_TRUST == "true";\n'
        )
        assert c.query({}, ["alice"], BOOL) == "true"

    def test_action_authorizers_visible(self):
        c = checker_with(
            'Authorizer: "POLICY"\nLicensees: "alice"\n'
            'Conditions: _ACTION_AUTHORIZERS ~= "alice";\n'
        )
        assert c.query({}, ["alice"], BOOL) == "true"


class TestSignatureEnforcement:
    def test_unverifiable_credential_ignored(self, bob_key):
        bob_id = encode_public_key(bob_key)
        unsigned = f'Authorizer: "{bob_id}"\nLicensees: "alice"\n'
        checker = ComplianceChecker(verify_signatures=True)
        checker.add_assertion(
            parse_assertion('Authorizer: "POLICY"\nLicensees: "%s"\n' % bob_id)
        )
        checker.add_assertion(parse_assertion(unsigned))
        assert checker.query({}, ["alice"], BOOL) == "false"

    def test_valid_credential_counts(self, bob_key):
        bob_id = encode_public_key(bob_key)
        signed = sign_assertion(
            f'Authorizer: "{bob_id}"\nLicensees: "alice"\n', bob_key
        )
        checker = ComplianceChecker(verify_signatures=True)
        checker.add_assertion(
            parse_assertion(f'Authorizer: "POLICY"\nLicensees: "{bob_id}"\n')
        )
        checker.add_assertion(parse_assertion(signed))
        assert checker.query({}, ["alice"], BOOL) == "true"

    def test_bad_signature_never_contributes(self, bob_key):
        bob_id = encode_public_key(bob_key)
        signed = sign_assertion(
            f'Authorizer: "{bob_id}"\nLicensees: "alice"\n'
            'Conditions: HANDLE == "7" -> "true";\n', bob_key
        )
        forged = parse_assertion(signed.replace('"alice"', '"eve"'))
        checker = ComplianceChecker(verify_signatures=True, index_attribute="HANDLE")
        checker.add_assertion(
            parse_assertion(f'Authorizer: "POLICY"\nLicensees: "{bob_id}"\n')
        )
        checker.add_assertion(parse_assertion(signed))
        checker.add_assertion(forged)
        for _ in range(3):
            assert checker.query_with_trace({"HANDLE": "7"}, ["eve"], BOOL) == (
                "false", [])
        assert checker.query({"HANDLE": "7"}, ["alice"], BOOL) == "true"

    def test_direct_add_verifies_lazily_once(self, bob_key, monkeypatch):
        bob_id = encode_public_key(bob_key)
        calls = []

        def counting(assertion):
            calls.append(assertion)
            verify_assertion(assertion)

        monkeypatch.setattr(compliance, "verify_assertion", counting)
        checker = ComplianceChecker(verify_signatures=True)
        checker.add_assertion(
            parse_assertion(f'Authorizer: "POLICY"\nLicensees: "{bob_id}"\n')
        )
        checker.add_assertion(parse_assertion(sign_assertion(
            f'Authorizer: "{bob_id}"\nLicensees: "alice"\n', bob_key
        )))
        assert calls == []
        for _ in range(3):
            assert checker.query({}, ["alice"], BOOL) == "true"
        assert len(calls) == 1


class TestLocalConstantsInConditions:
    def test_constants_shadow_action_attributes(self):
        c = checker_with(
            'Local-Constants: LIMIT = "10"\n'
            'Authorizer: "POLICY"\nLicensees: "alice"\n'
            "Conditions: @amount <= @LIMIT;\n"
        )
        assert c.query({"amount": "5", "LIMIT": "99999"}, ["alice"], BOOL) == "true"
        assert c.query({"amount": "50", "LIMIT": "99999"}, ["alice"], BOOL) == "false"


class TestAssertionManagement:
    def test_remove_assertion(self):
        checker = ComplianceChecker(verify_signatures=False)
        a = parse_assertion('Authorizer: "POLICY"\nLicensees: "alice"\n')
        checker.add_assertion(a)
        assert checker.query({}, ["alice"], BOOL) == "true"
        assert checker.remove_assertion(a)
        assert checker.query({}, ["alice"], BOOL) == "false"
        assert not checker.remove_assertion(a)

    def test_assertions_listing(self):
        checker = checker_with(
            'Authorizer: "POLICY"\nLicensees: "a"\n',
            'Authorizer: "x"\nLicensees: "b"\n',
        )
        assert len(checker.assertions()) == 2

    def test_bad_compliance_values_rejected(self):
        c = checker_with('Authorizer: "POLICY"\nLicensees: "a"\n')
        with pytest.raises(Exception):
            c.query({}, ["a"], ["only-one"])
