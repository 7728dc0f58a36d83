"""The benchmark's workloads: fixed operation lists over the checked-in
corpus, and the seeded instance draw of the warm sweep.

An operation is one (command, instance) pair.  Each workload also runs
the commands it does not focus on, on small probe instances, so that
every end-to-end and per-layer metric exists on every workload.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "corpus"


@dataclass(frozen=True)
class Op:
    command: str
    instance: str  # corpus file stem
    ideal: str | None = None  # verify only

    @property
    def key(self):
        return f"{self.command}:{self.instance}" + (f":{self.ideal}" if self.ideal else "")

    def argv(self):
        argv = [self.command, "--instance", str(CORPUS / f"{self.instance}.instance")]
        if self.ideal is not None:
            argv += ["--ideal", self.ideal]
        return argv


def _closure_ops():
    instances = ("orthant_triple_3d", "orthant_pair_4d", "quotient_cone_3d")
    ops = [Op(c, inst) for inst in instances for c in ("enumerate", "test-ideal", "stable-image")]
    # probes, kept small so the closure still dominates: non-LC and
    # verification of the test ideal on the two d = 3 instances, and one
    # cross-validation
    for inst in ("orthant_triple_3d", "quotient_cone_3d"):
        ops += [Op("non-lc", inst), Op("verify", inst, "(1,1,1)")]
    ops.append(Op("cross-validate", "orthant_triple_2d"))
    return tuple(ops)


def _lattice_points_ops():
    planar = ("worked_pair", "worked_triple", "orthant_triple_2d", "cone_1_7")
    ops = [Op("cross-validate", inst) for inst in planar]
    ops.append(Op("verify", "orthant_pair_4d", "(0,0,0,1) (0,0,1,0) (1,1,0,0)"))
    ops.append(Op("verify", "orthant_pair_4d", "(2,0,0,0)"))
    ops.append(Op("non-lc", "cone_1112_4d"))
    ops.append(Op("enumerate", "cone_1112_4d"))  # the known cap failure
    # probes: on these 2-D instances the extremal ideals are mostly
    # lattice-point search, with a small closure
    ops += [Op(c, inst) for inst in planar for c in ("test-ideal", "stable-image")]
    return tuple(ops)


COLD_WORKLOADS = {"closure": _closure_ops(), "lattice_points": _lattice_points_ops()}
# one tiny operation per workload for the benchmark's own tests
SMOKE_OPS = {"closure": (Op("enumerate", "worked_pair"),), "lattice_points": (Op("non-lc", "cone_1_7"),)}
SMOKE_SWEEP_SIZE = 2

# the sweep's cross-validate probe, run once per pass in the warm process
SWEEP_PROBE = Op("cross-validate", "worked_pair")


def corpus_text(stem):
    return (CORPUS / f"{stem}.instance").read_text()


def cold_ops(workload, seed, smoke=False):
    """The workload's operations in a seeded order."""
    ops = list((SMOKE_OPS if smoke else COLD_WORKLOADS)[workload])
    random.Random(seed).shuffle(ops)
    return ops


def instance_texts(workload, seed, smoke=False):
    """Every instance one pass of the workload builds."""
    if workload == "sweep":
        if smoke:
            return sweep_instances(seed)[:SMOKE_SWEEP_SIZE]
        return sweep_instances(seed) + [corpus_text(SWEEP_PROBE.instance)]
    stems = dict.fromkeys(op.instance for op in cold_ops(workload, seed, smoke))
    return [corpus_text(stem) for stem in stems]


# ---------------------------------------------------------------- sweep

SWEEP_CONES = (
    ((1, 0), (0, 1)),
    ((1, 0), (1, 2)),
    ((1, 0), (1, 3)),
    ((2, 1), (1, 2)),
    ((1, -1), (1, 2)),
)
ORTHANT_3D = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
SWEEP_PRIMES = (2, 3, 5)
SWEEP_T = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1))
COEFFICIENT_SHARE = 0.3


def _vec(v):
    return "(" + ",".join(str(c) for c in v) + ")"


def _instance_text(rays, p, w, a=None, t=None):
    lines = ["format_version = 1", f"dimension = {len(rays[0])}", "rays = " + " ".join(_vec(r) for r in rays),
             f"w = {_vec(w)}", f"p = {p}", "e = 1"]
    if a is not None:
        lines += ["a = " + " ".join(_vec(g) for g in a), f"t = {t}"]
    return "\n".join(lines) + "\n"


def _coefficient(rng, rays, p):
    """1 to 3 generators, each a 0/1 combination of the rays, and an
    exponent whose denominator is prime to p."""
    gens = set()
    for _ in range(rng.randint(1, 3)):
        coeffs = [rng.randint(0, 1) for _ in rays]
        gens.add(tuple(sum(c * r[k] for c, r in zip(coeffs, rays)) for k in range(len(rays[0]))))
    return sorted(gens), rng.choice([t for t in SWEEP_T if t.denominator % p])


def sweep_instances(seed):
    """Instance texts for one sweep pass, in a seeded order.

    The twist w runs over a fixed box for every cone and prime, so each
    seed sees the same mix of geometries and the pass time stays steady
    across seeds.  The seed picks which 2-D instances carry a
    coefficient ideal, the ideal and its exponent, and the order.
    Draws with an ill-defined operator or an invalid triple are dropped
    here, so they never count as failures.
    """
    from toric_cartier.errors import ToricError
    from toric_cartier.instance import build_triple, parse_instance

    rng = random.Random(seed)
    grid = [(rays, p, (w1, w2)) for rays in SWEEP_CONES for p in SWEEP_PRIMES
            for w1 in (-1, 0) for w2 in (-1, 0)]
    with_a = set(rng.sample(range(len(grid)), round(COEFFICIENT_SHARE * len(grid))))
    texts = [_instance_text(rays, p, w, *(_coefficient(rng, rays, p) if k in with_a else ()))
             for k, (rays, p, w) in enumerate(grid)]
    texts += [_instance_text(ORTHANT_3D, p, (0, 0, 0)) for p in SWEEP_PRIMES]
    out = []
    for text in texts:
        try:
            tr, _ = build_triple(parse_instance(text))
        except ToricError:
            continue
        if tr.cartier.is_well_defined:
            out.append(text)
    rng.shuffle(out)
    return out


def digest(texts):
    """Short content digest of an instance list."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]
