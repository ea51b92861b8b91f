"""Correctness check of one pipeline report.

Standard library only, so the runner can check reports without importing the
program it measures.  A certificate counts as failed when any of these holds:

- its recorded verdict is a failure;
- ``lipfree verify`` does not re-evaluate it as a consistent pass;
- the report's multiset of (kind, verdict) pairs differs from the reference;
- a headline value differs from the reference beyond the workload's tolerance
  (each such value counts as one failed certificate);
- the report is not byte-identical to another report of the same seed.
"""

from __future__ import annotations

import math
from collections import Counter


def iter_certificates(obj):
    """Certificate records of a report, in the order ``lipfree verify`` reads them."""
    if isinstance(obj, dict):
        if {"kind", "claimed", "measured", "comparator"} <= set(obj):
            yield obj
        for v in obj.values():
            yield from iter_certificates(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from iter_certificates(v)


def kinds_and_verdicts(payload: dict) -> Counter:
    return Counter((c["kind"], bool(c["passed"])) for c in iter_certificates(payload))


def headline(payload: dict) -> dict:
    """The report's headline values, by name."""
    out = {}
    if payload.get("pipeline") == "extend":
        out["operator_norm"] = payload["bundle"]["operator_norm"]
        for cert in payload["certificates"]:
            if cert["kind"] == "adapted-sup-distance":
                out["adapted_sup_distance"] = cert["measured"]
        for p in payload["perturbed"]:
            out[f"perturbed_norm.{p['index']}"] = p["norm"]
    elif payload.get("pipeline") == "glue":
        for p in payload["probes"]:
            out[f"probe_norm.{p['index']}"] = p["norm"]
    return out


def reference_entry(payload: dict) -> dict:
    """What the reference file stores for a workload's default seed."""
    return {
        "kinds": sorted([kind, passed, count]
                        for (kind, passed), count in kinds_and_verdicts(payload).items()),
        "headline": headline(payload),
    }


def _close(value, expected, rel_tol) -> bool:
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - expected) <= rel_tol * abs(expected))


def score_report(payload: dict, verify_lines: list[str], verify_rc: int,
                 reference: dict | None, rel_tol: float,
                 headline_keys) -> tuple[int, int, list[str]]:
    """Return (attempted, failed, problems) for one report.

    ``headline_keys`` names the reference headline values this seed must
    reproduce; ``reference`` may be None for a config with no reference.
    """
    certs = list(iter_certificates(payload))
    if not certs:
        return 1, 1, ["report holds no certificates"]
    problems = []
    bad = [not c["passed"] for c in certs]
    if any(bad):
        problems.append(f"{sum(bad)} certificates recorded as failed")

    if len(verify_lines) != len(certs):
        problems.append(f"verify read {len(verify_lines)} certificates, report has {len(certs)}")
        bad = [True] * len(certs)
    else:
        for i, (line, c) in enumerate(zip(verify_lines, certs)):
            if line != f"{c['kind']}: recorded pass, re-evaluated consistent":
                bad[i] = True
        if verify_rc != (1 if any(bad) else 0):
            problems.append(f"verify exited {verify_rc}")
            bad = [True] * len(certs)
    if sum(bad) > sum(not c["passed"] for c in certs):
        problems.append("verify disagrees with the report")

    attempted, extra = len(certs), 0
    if reference is not None:
        want = Counter({(k, bool(p)): n for k, p, n in reference["kinds"]})
        got = kinds_and_verdicts(payload)
        surplus, missing = got - want, want - got
        if surplus or missing:
            problems.append(f"kinds/verdicts differ from reference: "
                            f"extra {dict(surplus)}, missing {dict(missing)}")
        # a missing certificate was attempted and failed; a surplus one is failed
        attempted += sum(missing.values())
        extra += sum(missing.values())
        for i, c in enumerate(certs):
            pair = (c["kind"], bool(c["passed"]))
            if surplus[pair] > 0:
                surplus[pair] -= 1
                bad[i] = True
        values = headline(payload)
        for key in headline_keys:
            want_value = reference["headline"][key]
            if not _close(values.get(key), want_value, rel_tol):
                problems.append(f"{key} = {values.get(key)!r}, reference {want_value!r}")
                extra += 1
    return attempted, min(attempted, sum(bad) + extra), problems
