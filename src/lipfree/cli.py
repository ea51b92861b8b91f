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
               norm, metric_changes, operator, certificates}]
  bap          pipeline, seed, rows, certificates
  perturb      an inline space spec {points, metric, base_point, and coords
               if the source space has them} and its sup_distance from the
               source metric

A list of changes (`_changes`) holds [i, j, value] for each entry of a
matrix whose bits differ from a base, in row-major order, floats by repr:
`m = base.copy(); m[i, j] = value` per change rebuilds it bit for bit.  The
extend `weights` are the partition weights against +0.0, from the base
np.zeros((space.n, len(cover.net))), a column per net point.  The induced
pseudometric and the adapted metric are left out; with `space` read back by
`space_from_json`, they are rebuilt bit for bit:

  induced = molecule_norm_matrix(WeightOperator(space, cover.net, weights,
                                                partition=True), space.dist)
  adapted = induced + quotient_pseudometric(space.dist, cover.net)

A glue probe's `metric_changes` are against `glue_metric`, and its
`operator`, null when the probe was refused before it was built, is against
+0.0 from the base np.zeros((len(glue_metric), len(domain))).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bap as bapmod
from . import certs as certsmod
from . import covers as coversmod
from . import extension as extmod
from . import gluing as gluemod
from .config import PIPELINES, ConfigError, read
from .spaces import BoundedMetric, perturb_metric, set_distance, sup_distance


def _load_config(args) -> dict:
    """The config of args.command, read by its table (`config.read`)."""
    with open(args.config) as fh:
        cfg = json.load(fh)
    if args.seed_override is not None and isinstance(cfg, dict):
        cfg["seed"] = args.seed_override
    return read(cfg, PIPELINES[args.command])


# One-shot encode() of an encoder without indent runs CPython's C encoder.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
_SCALARS = (str, int, float, type(None))


def _write_value(write, value) -> None:
    """Write `value` as compact JSON with sorted keys, arrays as their
    `.tolist()`, one leaf at a time.

    Dicts are walked key by key in sorted order, arrays of two or more
    dimensions row by row, and lists and tuples item by item unless they
    hold only scalars, or only lists and tuples of scalars (`_changes`).
    Every other value is a leaf: one call of `_ENCODE`, so no matrix is ever
    held as Python floats.  A dict key that is not a str raises TypeError,
    as does any leaf the encoder refuses.
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
          or isinstance(value, (list, tuple)) and not all(isinstance(x, _SCALARS) for x in (
              itertools.chain.from_iterable(value)
              if all(isinstance(v, (list, tuple)) for v in value) else value))):
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


def _cover(nc) -> dict:
    return {"net": list(nc.net), "sets": [list(s) for s in nc.sets],
            "order_bound": nc.order_bound}


def _changes(a, base) -> list[list]:
    """[i, j, a[i, j]] for each entry of a whose bits differ from base's (an
    array of a's shape or a scalar), in row-major order; a signed zero differs."""
    a = np.asarray(a, dtype=float)
    i, j = np.nonzero(a.view(np.uint64) != np.asarray(base, dtype=float).view(np.uint64))
    return [list(t) for t in zip(i.tolist(), j.tolist(), a[i, j].tolist())]


def _stage_eps(nu: float, n: int) -> float:
    """Scale of stage n of a (nu, n_schedule) config."""
    return min(nu / 4.0, 1.0 / (10.0 * n))


def _seed(cfg: dict, randomized: int) -> int:
    """cfg's seed, 0 if it has none and runs no randomized step."""
    if cfg["seed"] is None and randomized:
        raise ConfigError("config performs a randomized step and must carry a seed")
    return cfg["seed"] or 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_build_cover(args) -> int:
    cfg = _load_config(args)
    spec, space = cfg["space"]
    eps = cfg["eps"]
    nc = coversmod.build_net_cover(space, eps)
    cert = coversmod.verify_net_cover(nc)
    out = Path(args.out_dir) / f"cover-{cfg['seed']}-{eps}.json"
    _write_json(out, {"space": spec, "eps": eps, "cover": _cover(nc),
                      "certificates": _cert_list([cert])})
    print(f"wrote {out}")
    print(cert)
    return 0 if cert.passed else 1


def cmd_extend(args) -> int:
    cfg = _load_config(args)
    spec, space = cfg["space"]
    if cfg["eps_schedule"] is not None:
        schedule = [(str(eps), eps) for eps in cfg["eps_schedule"]]
    elif cfg["nu"] is None or cfg["n_schedule"] is None:
        raise ConfigError("config needs eps_schedule or (nu, n_schedule)")
    else:
        schedule = [(str(n), _stage_eps(cfg["nu"], n)) for n in cfg["n_schedule"]]
    count = cfg["perturbations"]["count"]
    seed = _seed(cfg, count)
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
            "space": spec,
            "eps": eps,
            "seed": seed,
            "bundle": {
                "cover": _cover(bundle.nc),
                "weights": _changes(bundle.pou.matrix, 0.0),
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
    _, space = cfg["space"]
    gcfg = gluemod.GluingConfig(space, tuple(cfg["k"]), cfg["dim_k"], tuple(cfg["thresholds"]))
    n, eps, nu = cfg["n"], cfg["eps"], cfg["nu"]
    if eps is None:
        if nu is None:
            raise ConfigError("config needs an 'eps' or a 'nu' entry")
        exh = gluemod.build_exhaustion(gcfg)
        if n > len(exh):
            raise ConfigError(f"n = {n} must lie in 1..{len(exh)}, the exhaustion's levels")
        eps = min(nu / 5.0, set_distance(space.dist, gcfg.k, exh[n - 1]))
    bundle = gluemod.build_gluing_bundle(gcfg, n, eps)
    count = cfg["probes"]["count"]
    seed = _seed(cfg, count)
    rng = np.random.default_rng(seed)
    radius = gluemod.probe_radius(eps, gcfg.dim_k)
    amp = cfg["probes"]["amplitude"] * radius
    bound = gluemod.glued_norm_bound(gcfg.dim_k)
    ok = bundle.passed
    results = []
    glue = BoundedMetric(bundle.metric, bundle.excess)
    for i in range(count):
        e = glue if i == 0 else perturb_metric(glue, amp, rng)
        cert = gluemod.certify_gluing(bundle, e, rng=rng)
        ok = ok and cert.passed
        results.append({
            "index": i,
            "norm": cert.measured_norm,
            "metric_changes": _changes(e.matrix, bundle.metric),
            "operator": None if cert.h_matrix is None else _changes(cert.h_matrix, 0.0),
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
        "glue_metric": np.asarray(bundle.metric, dtype=float),
        "certificates": _cert_list(bundle.certificates),
        "probes": results,
    }
    out = Path(args.out_dir) / f"glue-{seed}-{n}.json"
    _write_json(out, payload)
    print(f"wrote {out}")
    return 0 if ok else 1


def cmd_bap(args) -> int:
    cfg = _load_config(args)
    _, space = cfg["space"]
    seed = cfg["seed"]
    stages = []
    bound = None
    for n in cfg["n_schedule"]:
        eps = _stage_eps(cfg["nu"], n)
        nc = coversmod.build_net_cover(space, eps)
        bundle = extmod.build_extension_bundle(nc)
        bound = extmod.perturbed_norm_bound(nc.order_bound)
        stages.append(bapmod.BapStage(
            label=n, op=bundle.pou, metric=bundle.adapted, eps=1.0 / n))
    report = bapmod.bap_certificate(stages, space.dist, bound, envelope=cfg["envelope"])
    path = Path(args.out_dir) / f"bap-{seed}.json"
    _write_json(path, {"pipeline": "bap", "seed": seed, "rows": list(report.rows),
                       "certificates": _cert_list(report.certificates)})
    for row in report.rows:
        print(f"n={row['n']}: |net|={row['net_size']} norm={row['norm']:.4g} "
              f"defect={row['defect']:.4g}")
    print(f"wrote {path}")
    return 0 if report.passed else 1


def cmd_perturb(args) -> int:
    cfg = _load_config(args)
    _, space = cfg["space"]
    seed = cfg["seed"]
    rng = np.random.default_rng(seed)
    for i in range(cfg["count"]):
        e = perturb_metric(space.dist, cfg["amplitude"], rng).matrix
        out = Path(args.out_dir) / f"perturb-{seed}-{i}.json"
        # a probe keeps the points, so it keeps their lattice coordinates
        coords = {} if space.coords is None else {"coords": space.coords}
        _write_json(out, {
            "points": list(space.points),
            "metric": np.asarray(e, dtype=float),
            "base_point": space.base_index,
            "sup_distance": sup_distance(e, space.dist),
            **coords,
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
    found = bad = 0
    for cert_dict in _iter_cert_dicts(payload):
        found += 1
        cert = certsmod.certificate_from_json(cert_dict)
        consistent = certsmod.verify_certificate(cert)
        bad += not (consistent and cert.passed)
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
    for name, fn in (("build-cover", cmd_build_cover), ("extend", cmd_extend),
                     ("glue", cmd_glue), ("bap", cmd_bap), ("perturb", cmd_perturb)):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.set_defaults(func=fn)
    pv = sub.add_parser("verify")
    pv.add_argument("path")
    pv.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, gluemod.GluingError) as err:     # ConfigError among them
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
