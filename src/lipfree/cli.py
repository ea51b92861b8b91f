"""Command-line pipelines: cover building, extension bundles, gluing, BAP
tables, metric perturbation, and certificate re-verification.

Every run is driven by a JSON config, every randomized step takes its seed
from the config, and reports are written as compact JSON with sorted keys, so
that re-running with the same config produces byte-identical files.  They are
written leaf by leaf through CPython's C encoder, matrices row by row, so
no report holds a matrix as Python floats (see `_write_value`).
Certificate tolerances are not configurable: each certificate records the
fixed tolerance it was checked with, and `verify` re-applies that recorded
value.

This module alone knows the report layout.  A report writes each value once
and leaves out what is a function of what it keeps:

  build-cover  space (the config's spec), eps, cover {net, sets, order_bound},
               certificates
  extend       pipeline, space, eps, seed, bundle {cover, weights,
               operator_norm, certificates}, perturbed [{index, norm, bound,
               certificates}], and the bundle certificates again at the top
  glue         pipeline, seed, n, m, eps, dim_k, admission_radius, bound, net,
               domain, collar, glue_metric, certificates, probes [{index,
               norm, probe_metric, operator, certificates}]
  bap          pipeline, seed, rows, certificates
  perturb      an inline space spec {points, metric, base_point} and its
               sup_distance from the source metric

`weights` has one column per point of `cover.net`.  The extend report stores
neither the induced pseudometric nor the adapted metric.  With `space` read
back by `space_from_json`, both are recomputed bit for bit:

  induced = molecule_norm_matrix(WeightOperator(space, cover.net, weights,
                                                partition=True), space.dist)
  adapted = induced + quotient_pseudometric(space.dist, cover.net)
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import bap as bapmod
from . import certs as certsmod
from . import covers as coversmod
from . import extension as extmod
from . import gluing as gluemod
from .spaces import (BoundedMetric, bad_indices, perturb_metric, set_distance,
                     space_from_json, sup_distance)


class ConfigError(ValueError):
    pass


def _get(cfg: dict, key: str):
    """cfg[key]; a missing key is a ConfigError that names it."""
    if key not in cfg:
        raise ConfigError(f"config needs a '{key}' entry")
    return cfg[key]


def _integer(value, name: str) -> int:
    """value as an int; a ConfigError that names the entry when it is not an
    integer (`bad_indices`), since int() would read 1.9 or true as 1."""
    if bad_indices([value]):
        raise ConfigError(f"config entry '{name}' must be an integer, got {value!r}")
    return int(value)


def _positive(value, name: str) -> float:
    """value as a float; a ConfigError that names the entry when it is not a
    finite number > 0, since float() would read true as 1.0 and "2" as 2.0."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value <= 0):
        raise ConfigError(f"config entry '{name}' must be a positive number, got {value!r}")
    return float(value)


def _schedule(cfg: dict, key: str) -> list:
    """cfg[key], if it is a nonempty list (an empty one runs no stage)."""
    value = _get(cfg, key)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"config entry '{key}' must be a nonempty list, got {value!r}")
    return value


def _n_schedule(cfg: dict) -> list[int]:
    """The stages of n_schedule, integers >= 1 (stage n has scale 1/(10 n))."""
    stages = [_integer(n, f"n_schedule[{i}]") for i, n in enumerate(_schedule(cfg, "n_schedule"))]
    for i, n in enumerate(stages):
        if n < 1:
            raise ConfigError(f"config entry 'n_schedule[{i}]' must be at least 1, got {n}")
    return stages


def _load_config(args) -> dict:
    with open(args.config) as fh:
        cfg = json.load(fh)
    if "tol" in cfg:
        raise ConfigError("config key 'tol' is not supported: certificate "
                          "tolerances are fixed")
    if getattr(args, "seed_override", None) is not None:
        cfg["seed"] = args.seed_override
    return cfg


def _space_from_config(cfg: dict):
    return space_from_json(_get(cfg, "space"))


def _require_seed(cfg: dict) -> int:
    if "seed" not in cfg:
        raise ConfigError("config performs a randomized step and must carry a seed")
    return _integer(cfg["seed"], "seed")


# One-shot encode() of an encoder without indent runs CPython's C encoder.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
_NESTED = (dict, list, tuple, np.ndarray)


def _write_value(write, value) -> None:
    """Write `value` as compact JSON with sorted keys, arrays as their
    `.tolist()`, one leaf at a time.

    Dicts are walked key by key in sorted order, and so are lists and tuples
    that hold a nested value, and arrays of two or more dimensions row by row.
    Every other value (a scalar, a flat list, a 1-D array or one row) is a
    leaf: one call of `_ENCODE`, so no matrix is ever held as Python floats.
    A dict key that is not a str raises TypeError, as does any leaf the
    encoder refuses.
    """
    if isinstance(value, dict):
        bad = [key for key in value if not isinstance(key, str)]
        if bad:
            raise TypeError(f"report keys must be str, got {bad[0]!r}")
        write("{")
        for i, key in enumerate(sorted(value)):
            write(("," if i else "") + _ENCODE(key) + ":")
            _write_value(write, value[key])
        write("}")
    elif (isinstance(value, np.ndarray) and value.ndim > 1
          or isinstance(value, (list, tuple)) and any(isinstance(v, _NESTED) for v in value)):
        write("[")
        for i, item in enumerate(value):
            if i:
                write(",")
            _write_value(write, item)
        write("]")
    else:
        write(_ENCODE(value.tolist() if isinstance(value, np.ndarray) else value))


def _write_json(path: Path, payload: dict) -> None:
    """Write the report to path whole or not at all.

    The bytes go to the sibling path + ".tmp", a name that no "*.json" glob
    matches, which is then renamed over path in one step.  On any exception,
    a refused leaf or an interrupt, the temporary file is removed and a report
    already at path is left as it was.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            _write_value(fh.write, payload)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cert_list(certs) -> list[dict]:
    return [certsmod.certificate_to_json(c) for c in certs]


def _matrix(m) -> np.ndarray:
    return np.asarray(m, dtype=float)


def _cover(nc) -> dict:
    return {"net": list(nc.net), "sets": [list(s) for s in nc.sets],
            "order_bound": nc.order_bound}


def _stage_eps(nu: float, n: int) -> float:
    """Scale of stage n of a (nu, n_schedule) config."""
    return min(nu / 4.0, 1.0 / (10.0 * n))


def _eps_schedule(cfg: dict) -> list[tuple[str, float]]:
    """Either an explicit eps list, or (nu, n_schedule) mapped through
    `_stage_eps`."""
    if "eps_schedule" in cfg:
        return [(str(e), _positive(e, f"eps_schedule[{i}]"))
                for i, e in enumerate(_schedule(cfg, "eps_schedule"))]
    if "nu" in cfg and "n_schedule" in cfg:
        nu = _positive(cfg["nu"], "nu")
        return [(str(n), _stage_eps(nu, n)) for n in _n_schedule(cfg)]
    raise ConfigError("config needs eps_schedule or (nu, n_schedule)")


# ---------------------------------------------------------------------------
# subcommands


def cmd_build_cover(args) -> int:
    cfg = _load_config(args)
    space = _space_from_config(cfg)
    eps = _positive(_get(cfg, "eps"), "eps")
    nc = coversmod.build_net_cover(space, eps)
    cert = coversmod.verify_net_cover(nc)
    out = Path(args.out_dir) / f"cover-{cfg.get('seed', 0)}-{eps}.json"
    _write_json(out, {
        "space": cfg["space"],
        "eps": eps,
        "cover": _cover(nc),
        "certificates": _cert_list([cert]),
    })
    print(f"wrote {out}")
    print(cert)
    return 0 if cert.passed else 1


def cmd_extend(args) -> int:
    cfg = _load_config(args)
    space = _space_from_config(cfg)
    schedule = _eps_schedule(cfg)
    perturb_cfg = cfg.get("perturbations", {})
    count = _integer(perturb_cfg.get("count", 0), "perturbations.count")
    seed = _require_seed(cfg) if count else _integer(cfg.get("seed", 0), "seed")
    ok = True
    for label, eps in schedule:
        nc = coversmod.build_net_cover(space, eps)
        bundle = extmod.build_extension_bundle(nc)
        certs = list(bundle.certificates)
        perturbed = []
        rng = np.random.default_rng(seed)
        radius = extmod.admission_radius(eps, nc.order_bound)
        start = BoundedMetric(bundle.adapted, bundle.excess)
        for i in range(count):
            e = perturb_metric(start, 0.9 * radius, rng)
            pb = extmod.build_perturbed_operator(bundle, e)
            perturbed.append({
                "index": i,
                "norm": pb.gnorm,
                "bound": extmod.perturbed_norm_bound(nc.order_bound),
                "certificates": _cert_list(pb.certificates),
            })
            certs.extend(pb.certificates)
        bundle_certs = _cert_list(bundle.certificates)
        payload = {
            "pipeline": "extend",
            "space": cfg["space"],
            "eps": eps,
            "seed": seed,
            "bundle": {
                "cover": _cover(bundle.nc),
                "weights": _matrix(bundle.pou.matrix),
                "operator_norm": bundle.enorm,
                "certificates": bundle_certs,
            },
            "perturbed": perturbed,
            "certificates": bundle_certs,
        }
        out = Path(args.out_dir) / f"extend-{seed}-{label}.json"
        _write_json(out, payload)
        stage_ok = certsmod.all_passed(certs)
        ok = ok and stage_ok
        sup = next(c.measured for c in bundle.certificates
                   if c.kind == "adapted-sup-distance")
        print(f"wrote {out} ({'pass' if stage_ok else 'FAIL'}, "
              f"|A|={len(bundle.net)}, sup distance {sup:.4g})")
    return 0 if ok else 1


def cmd_glue(args) -> int:
    cfg = _load_config(args)
    space = _space_from_config(cfg)
    gcfg = gluemod.GluingConfig(space, tuple(_get(cfg, "k")), _get(cfg, "dim_k"),
                                tuple(_get(cfg, "thresholds")))
    n = _integer(cfg.get("n", 1), "n")
    if "eps" in cfg:
        eps = _positive(cfg["eps"], "eps")
    else:
        nu = _positive(_get(cfg, "nu"), "nu")
        exh = gluemod.build_exhaustion(gcfg)
        if not 1 <= n <= len(exh):
            raise ConfigError(f"n = {n} must lie in 1..{len(exh)}, the exhaustion's levels")
        eps = min(nu / 5.0, set_distance(space.dist, gcfg.k, exh[n - 1]))
    bundle = gluemod.build_gluing_bundle(gcfg, n, eps)
    probes = cfg.get("probes", {})
    count = _integer(probes.get("count", 1), "probes.count")
    seed = _require_seed(cfg) if count else _integer(cfg.get("seed", 0), "seed")
    rng = np.random.default_rng(seed)
    radius = gluemod.probe_radius(eps, gcfg.dim_k)
    bound = gluemod.glued_norm_bound(gcfg.dim_k)
    ok = bundle.passed
    results = []
    glue = BoundedMetric(bundle.metric, bundle.excess)
    for i in range(count):
        amp = float(probes.get("amplitude", 0.9)) * radius
        e = glue if i == 0 else perturb_metric(glue, amp, rng)
        cert = gluemod.certify_gluing(bundle, e, rng=rng)
        ok = ok and cert.passed
        results.append({
            "index": i,
            "norm": cert.measured_norm,
            "probe_metric": _matrix(e.matrix),
            "operator": None if cert.h_matrix is None else _matrix(cert.h_matrix),
            "certificates": _cert_list(cert.certificates),
        })
        print(f"probe {i}: norm {cert.measured_norm:.4g} vs bound {bound:.6g} "
              f"-> {'pass' if cert.passed else 'FAIL'}")
    payload = {
        "pipeline": "glue",
        "seed": seed,
        "n": bundle.n,
        "m": bundle.m,
        "eps": eps,
        "dim_k": gcfg.dim_k,
        "admission_radius": radius,
        "bound": bound,
        "net": list(bundle.net),
        "domain": list(gluemod.glue_domain(bundle)),
        "collar": list(bundle.v_indices),
        "glue_metric": _matrix(bundle.metric),
        "certificates": _cert_list(bundle.certificates),
        "probes": results,
    }
    out = Path(args.out_dir) / f"glue-{seed}-{n}.json"
    _write_json(out, payload)
    print(f"wrote {out}")
    return 0 if ok else 1


def cmd_bap(args) -> int:
    cfg = _load_config(args)
    space = _space_from_config(cfg)
    nu = _positive(cfg.get("nu", 1.0), "nu")
    envelope = float(cfg.get("envelope", 4.0))
    seed = _integer(cfg.get("seed", 0), "seed")
    stages = []
    bound = None
    for n in _n_schedule(cfg):
        eps = _stage_eps(nu, n)
        nc = coversmod.build_net_cover(space, eps)
        bundle = extmod.build_extension_bundle(nc)
        bound = extmod.perturbed_norm_bound(nc.order_bound)
        stages.append(bapmod.BapStage(
            label=n, op=bundle.pou, metric=bundle.adapted, eps=1.0 / n))
    report = bapmod.bap_certificate(stages, space.dist, bound, envelope=envelope)
    path = Path(args.out_dir) / f"bap-{seed}.json"
    _write_json(path, {
        "pipeline": "bap",
        "seed": seed,
        "rows": list(report.rows),
        "certificates": _cert_list(report.certificates),
    })
    for row in report.rows:
        print(f"n={row['n']}: |net|={row['net_size']} norm={row['norm']:.4g} "
              f"defect={row['defect']:.4g}")
    print(f"wrote {path}")
    return 0 if report.passed else 1


def cmd_perturb(args) -> int:
    cfg = _load_config(args)
    space = _space_from_config(cfg)
    seed = _require_seed(cfg)
    amplitude = float(_get(cfg, "amplitude"))
    count = _integer(cfg.get("count", 1), "count")
    rng = np.random.default_rng(seed)
    for i in range(count):
        e = perturb_metric(space.dist, amplitude, rng).matrix
        out = Path(args.out_dir) / f"perturb-{seed}-{i}.json"
        _write_json(out, {
            "points": list(space.points),
            "metric": _matrix(e),
            "base_point": space.base_index,
            "sup_distance": sup_distance(e, space.dist),
        })
        print(f"wrote {out}")
    return 0


def _iter_cert_dicts(obj):
    if isinstance(obj, dict):
        if {"kind", "claimed", "measured", "comparator"} <= set(obj):
            yield obj
        for v in obj.values():
            yield from _iter_cert_dicts(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _iter_cert_dicts(v)


def cmd_verify(args) -> int:
    with open(args.path) as fh:
        payload = json.load(fh)
    found = 0
    bad = 0
    for cert_dict in _iter_cert_dicts(payload):
        found += 1
        cert = certsmod.certificate_from_json(cert_dict)
        consistent = certsmod.verify_certificate(cert)
        status = "ok" if (consistent and cert.passed) else "FAIL"
        if status == "FAIL":
            bad += 1
        print(f"{cert.kind}: recorded {'pass' if cert.passed else 'fail'}, "
              f"re-evaluated {'consistent' if consistent else 'INCONSISTENT'}")
    if found == 0:
        raise ValueError(f"no certificates found in {args.path}")
    print(f"{found - bad}/{found} certificates pass")
    return 0 if bad == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lipfree",
        description="Certified extension-operator pipelines on finite metric spaces")
    parser.add_argument("--seed", dest="seed_override", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out-dir", default="out", help="report directory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_config in (
        ("build-cover", cmd_build_cover, True),
        ("extend", cmd_extend, True),
        ("glue", cmd_glue, True),
        ("bap", cmd_bap, True),
        ("perturb", cmd_perturb, True),
    ):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.set_defaults(func=fn)
    pv = sub.add_parser("verify")
    pv.add_argument("path")
    pv.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, gluemod.GluingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
