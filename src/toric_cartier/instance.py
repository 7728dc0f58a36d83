"""Problem-instance ingestion and serialization.

The instance grammar is a flat key/value text document, one `key = value`
pair per line, `#` comments allowed.  Vectors are parenthesized integer
tuples like ``(1,-2)``, array fields are space-separated, exact rationals
are written ``a/b``.  Divisor coefficients follow the cone's
lexicographically sorted facet normals.  Exactly one of ``w`` and
``divisor`` must be present.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction

from .cartier import CartierData, DivisorData, TripleData, _is_prime, divisor_to_w
from .errors import InstanceError
from .ideals import Semigroup, ideal_from_generators

FORMAT_VERSION = 1

_KEYS = {
    "format_version",
    "dimension",
    "rays",
    "w",
    "divisor",
    "p",
    "e",
    "a",
    "t",
    "N",
    "margin",
    "pool_cap",
}


@dataclass(frozen=True)
class InstanceConfig:
    format_version: int
    dimension: int
    rays: tuple
    w: tuple | None
    divisor: tuple | None
    p: int
    e: int
    a_generators: tuple | None
    t: Fraction
    n_limit: int | None
    margin: int
    pool_cap: int


def _parse_vector(text, lineno, field):
    m = re.fullmatch(r"\(([^()]*)\)", text.strip())
    if not m:
        raise InstanceError(f"line {lineno}: field '{field}': expected a vector like (1,-2), got {text!r}")
    try:
        return tuple(int(c.strip()) for c in m.group(1).split(","))
    except ValueError:
        raise InstanceError(f"line {lineno}: field '{field}': non-integer coordinate in {text!r}") from None


def _parse_vectors(text, lineno, field):
    parts = re.findall(r"\([^()]*\)", text)
    leftover = re.sub(r"\([^()]*\)", "", text).strip()
    if leftover or not parts:
        raise InstanceError(f"line {lineno}: field '{field}': expected space-separated vectors, got {text!r}")
    return tuple(_parse_vector(p, lineno, field) for p in parts)


def _parse_rational(text, lineno, field):
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise InstanceError(f"line {lineno}: field '{field}': expected a rational a/b, got {text!r}") from None


def _parse_int(text, lineno, field):
    try:
        return int(text.strip())
    except ValueError:
        raise InstanceError(f"line {lineno}: field '{field}': expected an integer, got {text!r}") from None


def parse_instance(text):
    """Parse and validate an instance document into an InstanceConfig."""
    raw = {}
    lines = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise InstanceError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in _KEYS:
            raise InstanceError(f"line {lineno}: unknown field '{key}'")
        if key in raw:
            raise InstanceError(f"line {lineno}: duplicate field '{key}'")
        raw[key] = value
        lines[key] = lineno

    def line_of(key):
        return lines.get(key, 0)

    version = _parse_int(raw["format_version"], line_of("format_version"), "format_version") if "format_version" in raw else FORMAT_VERSION
    if version != FORMAT_VERSION:
        raise InstanceError(f"line {line_of('format_version')}: unsupported format_version {version}")
    for key in ("dimension", "rays", "p", "e"):
        if key not in raw:
            raise InstanceError(f"missing required field '{key}'")
    dimension = _parse_int(raw["dimension"], line_of("dimension"), "dimension")
    rays = _parse_vectors(raw["rays"], line_of("rays"), "rays")
    for r in rays:
        if len(r) != dimension:
            raise InstanceError(f"line {line_of('rays')}: ray {r} does not match dimension {dimension}")
    if ("w" in raw) == ("divisor" in raw):
        raise InstanceError("exactly one of 'w' and 'divisor' must be given")
    w = _parse_vector(raw["w"], line_of("w"), "w") if "w" in raw else None
    if w is not None and len(w) != dimension:
        raise InstanceError(f"line {line_of('w')}: w {w} does not match dimension {dimension}")
    divisor = None
    if "divisor" in raw:
        divisor = tuple(_parse_rational(c, line_of("divisor"), "divisor") for c in raw["divisor"].split())
        if not divisor:
            raise InstanceError(f"line {line_of('divisor')}: empty divisor coefficient list")
    p = _parse_int(raw["p"], line_of("p"), "p")
    e = _parse_int(raw["e"], line_of("e"), "e")
    if not _is_prime(p):
        raise InstanceError(f"line {line_of('p')}: p = {p} is not prime")
    if e < 1:
        raise InstanceError(f"line {line_of('e')}: e = {e} is not a positive integer")
    a_generators = _parse_vectors(raw["a"], line_of("a"), "a") if "a" in raw else None
    t = _parse_rational(raw["t"], line_of("t"), "t") if "t" in raw else Fraction(0)
    if t < 0:
        raise InstanceError(f"line {line_of('t')}: t must be nonnegative")
    if t.denominator % p == 0:
        raise InstanceError(f"line {line_of('t')}: t = {t} has p = {p} in its denominator")
    n_limit = _parse_int(raw["N"], line_of("N"), "N") if "N" in raw else None
    margin = _parse_int(raw["margin"], line_of("margin"), "margin") if "margin" in raw else 2
    pool_cap = _parse_int(raw["pool_cap"], line_of("pool_cap"), "pool_cap") if "pool_cap" in raw else 20
    return InstanceConfig(
        format_version=version,
        dimension=dimension,
        rays=rays,
        w=w,
        divisor=divisor,
        p=p,
        e=e,
        a_generators=a_generators,
        t=t,
        n_limit=n_limit,
        margin=margin,
        pool_cap=pool_cap,
    )


def serialize_instance(cfg):
    """Canonical text for an InstanceConfig; parse(serialize(cfg)) == cfg."""
    out = [f"format_version = {cfg.format_version}", f"dimension = {cfg.dimension}"]
    out.append("rays = " + " ".join(_vector_str(r) for r in cfg.rays))
    if cfg.w is not None:
        out.append(f"w = {_vector_str(cfg.w)}")
    else:
        out.append("divisor = " + " ".join(str(c) for c in cfg.divisor))
    out.append(f"p = {cfg.p}")
    out.append(f"e = {cfg.e}")
    if cfg.a_generators is not None:
        out.append("a = " + " ".join(_vector_str(g) for g in cfg.a_generators))
    if cfg.t:
        out.append(f"t = {cfg.t}")
    if cfg.n_limit is not None:
        out.append(f"N = {cfg.n_limit}")
    out.append(f"margin = {cfg.margin}")
    out.append(f"pool_cap = {cfg.pool_cap}")
    return "\n".join(out) + "\n"


def _vector_str(v):
    return "(" + ",".join(str(c) for c in v) + ")"


def build_triple(cfg):
    """Materialize the semigroup, operator and triple described by a
    config, converting divisor data to the twist vector when needed."""
    amb = Semigroup.from_rays(cfg.rays)
    if cfg.w is not None:
        w = cfg.w
        resolved = cfg
    else:
        if len(cfg.divisor) != len(amb.cone.normals):
            raise InstanceError(
                f"field 'divisor': expected {len(amb.cone.normals)} coefficients, one per facet, got {len(cfg.divisor)}"
            )
        w = divisor_to_w(amb.cone, DivisorData(cfg.divisor), cfg.p, cfg.e)
        resolved = replace(cfg, w=w, divisor=None)
    cartier = CartierData(cfg.p, cfg.e, w, amb)
    a_ideal = ideal_from_generators(amb, cfg.a_generators) if cfg.a_generators is not None else None
    return TripleData.create(cartier, a_ideal, cfg.t), resolved


def parse_ideal_argument(amb, text):
    """Generators for the --ideal argument: '(1,1) (1,2)' or '0'."""
    text = text.strip()
    if text == "0":
        from .ideals import zero_ideal

        return zero_ideal(amb)
    gens = _parse_vectors(text, 0, "ideal")
    return ideal_from_generators(amb, gens)
