"""What a config may hold: one table per CLI pipeline and per space-spec
form, with rows key: (kind, default), and `read`, their one reader.  A
default of REQUIRED makes a key required, and None leaves it None, for the
pipeline to resolve.  `read` refuses a root that is not an object, a key
the table does not list (`tol` among them), an explicit null and a bool
where a number is expected, with a ConfigError that names the key:
'probes.count', 'eps_schedule[1]', or 'dims', named as in its space spec.
"""

from __future__ import annotations

import math
import reprlib

import numpy as np

from .spaces import FiniteMetricSpace, bad_indices, make_grid_space, random_metric_space

REQUIRED = object()


class ConfigError(ValueError):
    pass


class Kind:
    """A leaf that `fits` and is `cast`, or a nonempty list of `item`s.  what
    reads "an integer in [0, 2**63)", and many "integers in [0, 2**63)"
    inside a list kind."""

    def __init__(self, what, many, fits=None, cast=None, item=None, same_length=False):
        self.what, self.many, self.fits, self.cast = what, many, fits, cast
        self.item, self.same_length = item, same_length


def list_of(item: Kind, same_length: bool = False) -> Kind:
    many = "nonempty lists of " + ("equal-length " if same_length else "") + item.many
    return Kind("a " + many.replace("lists", "list", 1), many, item=item, same_length=same_length)


def _number(v) -> bool:
    """v is a number, not a bool, that a float can hold (10**400 is not)."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


def _integer(v) -> bool:
    """v is an integer, not a bool, that an int64 can hold: coords become an
    int64 array and a seed a report's file name, so 10**400 is refused here
    and not by a traceback or after the run."""
    return not bad_indices([v]) and -2**63 <= v < 2**63


# the kinds name the int64 range, so that 10**400 is refused in its terms
INTEGER = Kind("an integer in [-2**63, 2**63)", "integers in [-2**63, 2**63)", _integer, int)
INT0 = Kind("an integer in [0, 2**63)", "integers in [0, 2**63)",
            lambda v: INTEGER.fits(v) and v >= 0, int)
INT1 = Kind("an integer in [1, 2**63)", "integers in [1, 2**63)",
            lambda v: INTEGER.fits(v) and v >= 1, int)
NUMBER = Kind("a number", "numbers", _number, float)
POSITIVE = Kind("a positive finite number", "positive finite numbers",
                lambda v: _number(v) and 0 < v < math.inf, float)
NONNEGATIVE = Kind("a nonnegative finite number", "nonnegative finite numbers",
                   lambda v: _number(v) and 0 <= v < math.inf, float)
NAME = Kind("a string or an integer in [-2**63, 2**63)", "strings or integers in [-2**63, 2**63)",
            lambda v: isinstance(v, str) or INTEGER.fits(v), str)
# read as (the spec as given, which reports embed, and its space)
SPACE = Kind("a space spec", "space specs", lambda v: isinstance(v, dict),
             lambda v: (v, space_from_json(v)))

PIPELINES: dict[str, dict] = {
    "build-cover": {"space": (SPACE, REQUIRED), "eps": (POSITIVE, REQUIRED), "seed": (INT0, 0)},
    "extend": {"space": (SPACE, REQUIRED), "eps_schedule": (list_of(POSITIVE), None),
               "nu": (POSITIVE, None), "n_schedule": (list_of(INT1), None),
               "seed": (INT0, None), "perturbations": ({"count": (INT0, 0)}, {})},
    "glue": {"space": (SPACE, REQUIRED), "k": (list_of(INT0), REQUIRED),
             "dim_k": (INT0, REQUIRED), "thresholds": (list_of(POSITIVE), REQUIRED),
             "n": (INT1, 1), "eps": (POSITIVE, None), "nu": (POSITIVE, None),
             "seed": (INT0, None),
             "probes": ({"count": (INT0, 1), "amplitude": (NONNEGATIVE, 0.9)}, {})},
    "perturb": {"space": (SPACE, REQUIRED), "seed": (INT0, REQUIRED),
                "amplitude": (NONNEGATIVE, REQUIRED), "count": (INT0, 1)},
}
_GENERATOR = Kind("'grid' or 'random'", "", lambda v: v in ("grid", "random"), str)
_GROUND = Kind("'linf', 'l1' or 'l2'", "", lambda v: v in ("linf", "l1", "l2"), str)
SPACE_SPECS: dict[str, dict] = {
    "grid": {"generator": (_GENERATOR, REQUIRED), "dims": (list_of(INT1), REQUIRED),
             "spacing": (POSITIVE, REQUIRED), "ground": (_GROUND, "linf")},
    "random": {"generator": (_GENERATOR, REQUIRED), "n": (INT1, REQUIRED),
               "seed": (INT0, REQUIRED), "scale": (POSITIVE, 1.0)},
    # a `perturb` report is an inline spec with its sup_distance, read and not used
    "inline": {"points": (list_of(NAME), REQUIRED),
               "metric": (list_of(list_of(NUMBER), True), REQUIRED), "base_point": (INT0, 0),
               "coords": (list_of(list_of(INTEGER), True), None), "nominal_dim": (INT0, None),
               "sup_distance": (NONNEGATIVE, None)},
}


def _entry(value, kind, path: str):
    """value read as kind; a ConfigError names path and the misfit part."""
    if isinstance(kind, dict):
        return read(value, kind, path + ".")

    def cast(v, k: Kind, where: str):
        if k.item is None:
            if k.fits(v):
                return k.cast(v)
        elif isinstance(v, (list, tuple)) and v:
            whole = k.item.item is None and all(map(k.item.fits, v))   # fitting leaves
            out = (list(map(k.item.cast, v)) if whole
                   else [cast(x, k.item, f"{where}[{i}]") for i, x in enumerate(v)])
            if not k.same_length or len({len(x) for x in v}) == 1:
                return out
        at = "" if where == path else f" at '{where}'"
        raise ConfigError(f"config entry '{path}' must be {kind.what}, got {reprlib.repr(v)}{at}")
    return cast(value, kind, path)


def read(value, table: dict, prefix: str = "") -> dict:
    """Each key of table read from the object value, else its default."""
    if not isinstance(value, dict):
        name = f"config entry '{prefix[:-1]}'" if prefix else "a config"
        raise ConfigError(f"{name} must be an object, got {reprlib.repr(value)}")
    for key in value:
        if key not in table:
            raise ConfigError(f"config entry '{prefix}{key}' is not supported: "
                              f"the keys are {', '.join(table)}")
    out = {}
    for key, (kind, default) in table.items():
        if key in value:
            out[key] = _entry(value[key], kind, prefix + key)
        elif default is REQUIRED:
            raise ConfigError(f"config needs a '{prefix}{key}' entry")
        else:
            out[key] = default if default is None else _entry(default, kind, prefix + key)
    return out


def space_from_json(obj: dict) -> FiniteMetricSpace:
    """Space from a config spec, read by the table of its form: a `grid` or
    `random` generator, or an inline metric without a generator entry."""
    form = "inline"
    if isinstance(obj, dict) and "generator" in obj:
        form = _entry(obj["generator"], _GENERATOR, "generator")
    spec = read(obj, SPACE_SPECS[form])
    if form == "grid":
        return make_grid_space(spec["dims"], spec["spacing"], spec["ground"])
    if form == "random":
        return random_metric_space(spec["n"], spec["seed"], spec["scale"])
    coords = spec["coords"]
    return FiniteMetricSpace(tuple(spec["points"]), np.array(spec["metric"], dtype=float),
                             base_index=spec["base_point"], nominal_dim=spec["nominal_dim"],
                             coords=None if coords is None else np.array(coords, dtype=int))
