"""Machine-checkable certificates for every verified bound.

A certificate records the claimed bound, the measured value, the comparator
and the tolerance, so that the pass/fail verdict can be re-evaluated from the
JSON record alone.  Measured values inside [bound, bound + tol] pass with a
warning flag; this is the concession made to floating-point LP solutions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict
from typing import Any

import numpy as np

COMPARATORS = ("le", "ge", "lt", "abs_le")


def _canonical(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def hash_inputs(obj: Any) -> str:
    payload = json.dumps(_canonical(obj), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def evaluate(comparator: str, claimed: float, measured: float, tol: float) -> tuple[bool, bool]:
    """Return (passed, warning) for a measured value against a claimed bound."""
    if comparator == "le":
        passed = measured <= claimed + tol
        warning = passed and measured > claimed
    elif comparator == "ge":
        passed = measured >= claimed - tol
        warning = passed and measured < claimed
    elif comparator == "lt":
        passed = measured < claimed
        warning = passed and measured >= claimed - tol
    elif comparator == "abs_le":
        passed = abs(measured - claimed) <= tol
        warning = False
    else:
        raise ValueError(f"unknown comparator {comparator!r}")
    return bool(passed), bool(warning)


@dataclass(frozen=True)
class Certificate:
    kind: str
    claimed: float
    measured: float
    comparator: str
    tol: float
    passed: bool
    warning: bool
    witnesses: tuple = ()
    inputs_hash: str = ""
    details: dict = field(default_factory=dict)

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        if self.warning:
            verdict += " (warning)"
        return (f"{self.kind}: measured {self.measured:.6g} vs "
                f"{self.comparator} {self.claimed:.6g} -> {verdict}")


def make_certificate(kind: str, claimed: float, measured: float, comparator: str,
                     tol: float, witnesses=(), inputs: Any = None,
                     details: dict | None = None) -> Certificate:
    passed, warning = evaluate(comparator, float(claimed), float(measured), float(tol))
    return Certificate(
        kind=kind,
        claimed=float(claimed),
        measured=float(measured),
        comparator=comparator,
        tol=float(tol),
        passed=passed,
        warning=warning,
        witnesses=tuple(_canonical(list(witnesses))),
        inputs_hash=hash_inputs(inputs) if inputs is not None else "",
        details=dict(details or {}),
    )


def certificate_to_json(cert: Certificate) -> dict:
    out = asdict(cert)
    out["witnesses"] = _canonical(list(cert.witnesses))
    out["details"] = _canonical(cert.details)
    return out


def certificate_from_json(obj: dict) -> Certificate:
    """Certificate from its JSON record.  passed and warning must be JSON
    booleans and claimed, measured and tol JSON numbers, else ValueError: a
    string such as "false" must not be coerced into a verdict."""
    for key in ("passed", "warning"):
        if not isinstance(obj.get(key), bool):
            raise ValueError(f"certificate {obj.get('kind')!r}: {key} must be a JSON "
                             f"boolean, got {obj.get(key)!r}")
    for key in ("claimed", "measured", "tol"):
        if isinstance(obj.get(key), bool) or not isinstance(obj.get(key), (int, float)):
            raise ValueError(f"certificate {obj.get('kind')!r}: {key} must be a JSON "
                             f"number, got {obj.get(key)!r}")
    return Certificate(
        kind=obj["kind"],
        claimed=float(obj["claimed"]),
        measured=float(obj["measured"]),
        comparator=obj["comparator"],
        tol=float(obj["tol"]),
        passed=bool(obj["passed"]),
        warning=bool(obj["warning"]),
        witnesses=tuple(obj.get("witnesses", ())),
        inputs_hash=obj.get("inputs_hash", ""),
        details=obj.get("details", {}),
    )


def verify_certificate(cert: Certificate) -> bool:
    """Re-evaluate the verdict from the recorded numbers; True iff consistent."""
    passed, warning = evaluate(cert.comparator, cert.claimed, cert.measured, cert.tol)
    return passed == cert.passed and warning == cert.warning


def all_passed(certs) -> bool:
    return all(c.passed for c in certs)
