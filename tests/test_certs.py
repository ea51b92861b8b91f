import pytest

import lipfree as lf
from lipfree.certs import (certificate_from_json, certificate_to_json,
                           evaluate, hash_inputs, make_certificate)


class TestComparators:
    @pytest.mark.parametrize("comp,claimed,measured,tol,passed,warning", [
        ("le", 1.0, 0.5, 0.0, True, False),
        ("le", 1.0, 1.0, 0.0, True, False),
        ("le", 1.0, 1.0 + 1e-9, 1e-8, True, True),
        ("le", 1.0, 2.0, 0.0, False, False),
        ("ge", 1.0, 2.0, 0.0, True, False),
        ("ge", 1.0, 0.5, 0.0, False, False),
        ("lt", 1.0, 0.999, 1e-6, True, False),
        ("lt", 1.0, 1.0, 0.0, False, False),
        ("abs_le", 1.0, 1.0 + 5e-7, 1e-6, True, False),
        ("abs_le", 1.0, 1.01, 1e-6, False, False),
    ])
    def test_verdicts(self, comp, claimed, measured, tol, passed, warning):
        assert evaluate(comp, claimed, measured, tol) == (passed, warning)

    def test_unknown_comparator(self):
        with pytest.raises(ValueError):
            evaluate("==", 0, 0, 0)


class TestRoundTrip:
    def test_json_round_trip(self):
        cert = make_certificate("demo", 2.0, 1.5, "le", 1e-9,
                                witnesses=[(1, 2)], inputs={"a": 1},
                                details={"note": "x"})
        back = certificate_from_json(certificate_to_json(cert))
        assert back.kind == cert.kind
        assert back.passed == cert.passed
        assert lf.verify_certificate(back)

    def test_verification_catches_forged_verdict(self):
        cert = make_certificate("demo", 1.0, 5.0, "le", 0.0)
        forged = certificate_from_json({**certificate_to_json(cert), "passed": True})
        assert not lf.verify_certificate(forged)

    @pytest.mark.parametrize("key, value", [
        ("passed", "false"), ("passed", 1), ("warning", None), ("claimed", "1.0"),
        ("measured", True), ("tol", None), ("tol", [0.0]),
    ])
    def test_fields_must_have_their_json_types(self, key, value):
        record = {**certificate_to_json(make_certificate("demo", 1.0, 0.5, "le", 0.0)),
                  key: value}
        with pytest.raises(ValueError, match=key):
            certificate_from_json(record)

    def test_missing_verdict_rejected(self):
        record = certificate_to_json(make_certificate("demo", 1.0, 0.5, "le", 0.0))
        del record["warning"]
        with pytest.raises(ValueError, match="warning"):
            certificate_from_json(record)

    def test_hash_deterministic_and_canonical(self):
        a = hash_inputs({"x": 1, "y": [1.5, 2.5]})
        b = hash_inputs({"y": [1.5, 2.5], "x": 1})
        assert a == b
        assert a != hash_inputs({"x": 1, "y": [1.5, 2.0]})
