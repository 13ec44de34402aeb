"""Seeded job pools for the three benchmark workloads.

A pool is the list of jobs one pass of a workload runs.  Jobs are plain
data (dicts of ints, Fractions and tuples): this module does not import
heiscurve, so the oracle can regenerate the same pool from the seed without
touching the library.  A field element of Q(sqrt d) is a pair (p, q) of
Fractions meaning p + q*sqrt(d).

The per-kind job counts below are the workload weights.  They were set so
that on the seed commit no job kind takes much more than half of a pass,
the documented-error share stays below 10 % (so p90 is finite), and p50 and
p90 land inside groups of jobs of similar cost rather than on a boundary
between cheap and expensive kinds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("c3_pipeline", "torsion_scan", "tower_queries")

GOLDEN_C3 = Path(__file__).resolve().parent / "golden" / "c3.json"

# 2^4 * 3^3 * 5^2 * 7^2 * 11 * 13 * 17 * 19: a constant term with many
# divisors, which makes rational-root trial division expensive.
MANY_PRIME_B = -(2**4 * 3**3 * 5**2 * 7**2 * 11 * 13 * 17 * 19)

S3_NAMES = ("id", "i1", "i2", "i1i2", "i2i1", "i1i2i1")
TOWER_NS = (16, 64, 256, 1024)

# elements of Q(sqrt -3) that are not squares there: the twisting scalars
# of the classify_pair jobs are these times a square
NONSQUARES_D3 = (2, 5, 7, -1, -2)


@dataclass(frozen=True)
class Pool:
    workload: str
    seed: int
    jobs: tuple  # job dicts, in pass order


def field(p, q=0):
    return (Fraction(p), Fraction(q))


def f_add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def f_mul(u, v, d):
    return (u[0] * v[0] + d * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def f_scale(u, c):
    return (u[0] * c, u[1] * c)


def f_pow(u, k, d):
    out = field(1)
    for _ in range(k):
        out = f_mul(out, u, d)
    return out


def f_is_zero(u):
    return u[0] == 0 and u[1] == 0


def _nonsingular(A, B, d):
    # 4A^3 + 27B^2 != 0
    disc = f_add(f_scale(f_pow(A, 3, d), 4), f_scale(f_pow(B, 2, d), 27))
    return not f_is_zero(disc)


def flex_curve(a, b, d):
    """Curve y^2 = x^3 + Ax + B with the 3-torsion point (a^2/3, b).

    It is y^2 = x^3 + (a x + b)^2 moved to short Weierstrass form: the
    tangent y = ax + b meets the curve only at x = 0, so (0, b) is a flex.
    The planted point satisfies B = (A^2 - 3x0^4 - 6A x0^2) / (12 x0).
    """
    a2 = f_mul(a, a, d)
    a3 = f_mul(a2, a, d)
    a4 = f_mul(a2, a2, d)
    ab = f_mul(a, b, d)
    A = f_add(f_scale(ab, 2), f_scale(a4, Fraction(-1, 3)))
    B = f_add(f_add(f_mul(b, b, d), f_scale(f_mul(a3, b, d), Fraction(-2, 3))),
              f_scale(f_mul(a3, a3, d), Fraction(2, 27)))
    return A, B, f_scale(a2, Fraction(1, 3)), b


def _rand_int(rng, bits):
    """A nonzero integer of exactly the given bit length, random sign."""
    return rng.randrange(1 << (bits - 1), 1 << bits) * rng.choice((1, -1))


def _rand_small(rng):
    """A small-height element of Q(sqrt -3)."""
    return (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def _rand_small_nonzero(rng):
    while True:
        u = _rand_small(rng)
        if not f_is_zero(u):
            return u


# ---------------------------------------------------------------------------
# c3_pipeline
# ---------------------------------------------------------------------------

C3_COUNTS = {
    "derive": 12,
    "cli_c3": 12,
    "torsion_sets": 2,  # one job per c3 codomain
    "velu3": 240,
    "j_invariant": 240,
    "classify_pair": 240,
    "scalar_mul": 240,
    "hessian": 120,
}


def c3_codomains():
    golden = json.loads(GOLDEN_C3.read_text())
    out = []
    for row in golden["rows"]:
        cod = row["codomain"]
        out.append(tuple(
            (Fraction(cod[k]["p_num"], cod[k]["p_den"]),
             Fraction(cod[k]["q_num"], cod[k]["q_den"]))
            for k in ("A", "B")))
    return out


def _velu3_job(rng):
    d = -3
    while True:
        a, b = _rand_small_nonzero(rng), _rand_small_nonzero(rng)
        A, B, x0, y0 = flex_curve(a, b, d)
        if _nonsingular(A, B, d):
            return {"kind": "velu3", "d": d, "A": A, "B": B, "x": x0, "y": y0}


def _random_curve(rng, d=-3):
    while True:
        A, B = _rand_small_nonzero(rng), _rand_small_nonzero(rng)
        if _nonsingular(A, B, d):
            return A, B


def _classify_job(rng, relation):
    d = -3
    A1, B1 = _random_curve(rng)
    if relation == "random":
        A2, B2 = _random_curve(rng)
        scale = None
    else:
        u = _rand_small_nonzero(rng)
        if relation == "isomorphic":
            A2, B2 = f_mul(f_pow(u, 4, d), A1, d), f_mul(f_pow(u, 6, d), B1, d)
            scale = u
        else:
            delta = f_scale(f_mul(u, u, d), rng.choice(NONSQUARES_D3))
            A2, B2 = f_mul(f_pow(delta, 2, d), A1, d), f_mul(f_pow(delta, 3, d), B1, d)
            scale = delta
    return {"kind": "classify_pair", "d": d, "A1": A1, "B1": B1, "A2": A2, "B2": B2,
            "relation": relation, "scale": scale}


def _scalar_mul_job(rng):
    d = -3
    while True:
        x0, y0, A = _rand_small(rng), _rand_small_nonzero(rng), _rand_small(rng)
        # B = y0^2 - x0^3 - A x0 puts (x0, y0) on the curve
        B = f_add(f_add(f_mul(y0, y0, d), f_scale(f_pow(x0, 3, d), -1)),
                  f_scale(f_mul(A, x0, d), -1))
        if _nonsingular(A, B, d):
            return {"kind": "scalar_mul", "d": d, "A": A, "B": B, "x": x0, "y": y0, "k": 3}


MONOMIALS = tuple((i, j, 3 - i - j) for i in range(4) for j in range(4 - i))


def _hessian_at(coeffs, point):
    """Determinant of the matrix of second partials at a point."""
    h = [[Fraction(0)] * 3 for _ in range(3)]
    for mono, c in coeffs.items():
        for r in range(3):
            for s in range(3):
                e = list(mono)
                factor = e[r]
                e[r] -= 1
                if factor == 0:
                    continue
                factor *= e[s]
                e[s] -= 1
                if factor == 0:
                    continue
                term = c * factor
                for v, k in zip(point, e):
                    term *= v**k
                h[r][s] += term
    return (h[0][0] * (h[1][1] * h[2][2] - h[1][2] * h[2][1])
            - h[0][1] * (h[1][0] * h[2][2] - h[1][2] * h[2][0])
            + h[0][2] * (h[1][0] * h[2][1] - h[1][1] * h[2][0]))


def _hessian_job(rng):
    while True:
        coeffs = {}
        for mono in MONOMIALS:
            if rng.random() < 0.6:
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                if c:
                    coeffs[mono] = c
        point = tuple(Fraction(rng.randint(1, 7)) for _ in range(3))
        # a nonzero value proves the Hessian is not identically zero
        if coeffs and _hessian_at(coeffs, point) != 0:
            return {"kind": "hessian", "coeffs": tuple(sorted(coeffs.items()))}


def _c3_pool(rng):
    jobs = []
    jobs += [{"kind": "derive", "d": -3}] * C3_COUNTS["derive"]
    jobs += [{"kind": "cli_c3"}] * C3_COUNTS["cli_c3"]
    for _ in range(C3_COUNTS["torsion_sets"]):
        for row, (A, B) in enumerate(c3_codomains()):
            jobs.append({"kind": "three_torsion", "family": "c3_row%d" % row,
                         "d": -3, "A": A, "B": B, "x0": None})
    jobs += [_velu3_job(rng) for _ in range(C3_COUNTS["velu3"])]
    jobs += [{"kind": "j_invariant", "d": -3, **dict(zip("AB", _random_curve(rng)))}
             for _ in range(C3_COUNTS["j_invariant"])]
    relations = ("isomorphic", "twist", "random")
    jobs += [_classify_job(rng, relations[i % 3]) for i in range(C3_COUNTS["classify_pair"])]
    jobs += [_scalar_mul_job(rng) for _ in range(C3_COUNTS["scalar_mul"])]
    jobs += [_hessian_job(rng) for _ in range(C3_COUNTS["hessian"])]
    return jobs


# ---------------------------------------------------------------------------
# torsion_scan
# ---------------------------------------------------------------------------

# (d, bits of a, bits of b, count) for curves with a planted 3-torsion point
# (a^2/3, b); heights are capped so the slowest job stays within seconds
TORSION_STRATA = (
    (-3, 2, 4, 500),
    (-3, 2, 8, 400),
    (-3, 2, 12, 300),
    (-3, 2, 16, 6),
    (-1000003, 2, 4, 8),
    (-1000003, 2, 8, 4),
)
TORSION_REJECTED = {"irrational": 10, "random": 10}  # at d = -3
TORSION_MANY_PRIME = 1


def _planted_job(rng, d, bits_a, bits_b):
    while True:
        a = field(_rand_int(rng, bits_a))
        b = field(_rand_int(rng, bits_b))
        A, B, x0, _y0 = flex_curve(a, b, d)
        if _nonsingular(A, B, d):
            return {"kind": "three_torsion", "family": "planted", "d": d,
                    "A": A, "B": B, "x0": x0}


def _irrational_job(rng):
    """Planted irrational x0 with irrational A: the rational-root search
    cannot see the root, so today's root finder rejects these."""
    d = -3
    while True:
        A = (Fraction(rng.randint(1, 15)), Fraction(rng.randint(1, 15)))
        x0 = (Fraction(rng.randint(1, 15)), Fraction(rng.randint(1, 15)))
        x0_sq = f_mul(x0, x0, d)
        num = f_add(f_add(f_mul(A, A, d), f_scale(f_mul(x0_sq, x0_sq, d), -3)),
                    f_scale(f_mul(A, x0_sq, d), -6))
        # divide by 12 x0: multiply by the conjugate over the norm
        norm = x0[0] ** 2 - d * x0[1] ** 2
        B = f_scale(f_mul(num, (x0[0], -x0[1]), d), 1 / (12 * norm))
        if _nonsingular(A, B, d):
            return {"kind": "three_torsion", "family": "irrational", "d": d,
                    "A": A, "B": B, "x0": x0}


def _random_torsion_job(rng):
    while True:
        A, B = field(rng.randint(-60, 60)), field(rng.randint(-60, 60))
        if _nonsingular(A, B, -3):
            return {"kind": "three_torsion", "family": "random", "d": -3,
                    "A": A, "B": B, "x0": None}


def _torsion_pool(rng):
    jobs = []
    for d, bits_a, bits_b, count in TORSION_STRATA:
        jobs += [_planted_job(rng, d, bits_a, bits_b) for _ in range(count)]
    jobs += [{"kind": "three_torsion", "family": "many_prime", "d": -3,
              "A": field(0), "B": field(MANY_PRIME_B), "x0": None}] * TORSION_MANY_PRIME
    jobs += [_irrational_job(rng) for _ in range(TORSION_REJECTED["irrational"])]
    jobs += [_random_torsion_job(rng) for _ in range(TORSION_REJECTED["random"])]
    return jobs


# ---------------------------------------------------------------------------
# tower_queries
# ---------------------------------------------------------------------------

TOWER_COUNTS = {
    "order": 240,  # at n = 1024, elements of order exactly n
    "pow": 80,
    "eval_word": 60,
    "word_pow": 40,
    "witness": 20,
    "fermat_sets": 2,  # build_fermat_aut(n, verify=True) for n = 3..6
    "audit": 20,
    "heisenberg_genus": 30,
    "rh_genus": 30,
}
# lifts_to_heisenberg_cover jobs, one per (n, endomorphism).  At n = 1024
# only the four endomorphisms that do not lift: today id and i1 take 2-3 s
# each there, which would make one pass too long to repeat within a run.
LIFTS = tuple((n, name) for n in (16, 64, 256) for name in S3_NAMES) + \
    tuple((1024, name) for name in S3_NAMES[2:])
ORDER_N = 1024
# (n, sets): each set is stabilizer_generator and orbit_size of P, Q, Q'
STABILIZER_SETS = ((16, 12), (64, 2))
AUDIT_N_MAX = (50, 100, 150, 200)
EVAL_WORD_LETTERS = 1000
WORD_POW = (20, 30)  # letters in the word, |k|


def _rand_word(rng, length):
    """Syllables of a random freely reduced word with `length` letters."""
    syllables = []
    total = 0
    gen = rng.choice("ab")
    while total < length:
        e = min(rng.randint(1, 6), length - total)
        syllables.append((gen, e * rng.choice((1, -1))))
        total += e
        gen = "b" if gen == "a" else "a"
    return tuple(syllables)


def _element_of_order_n(rng, n):
    """(x, y, z) in H_n of order exactly n, n even.  With x odd and y even,
    m = n / gcd(n, x, y) = n and c = n z + n(n-1)/2 x y is 0 mod n, so the
    order m n / gcd(n, c) is n.  Today's order() scans up to the order, so
    fixing it fixes the cost of every order job."""
    x, y = rng.randrange(1, n, 2), rng.randrange(0, n, 2)
    if rng.random() < 0.5:
        x, y = y, x
    return (x, y, rng.randrange(n))


# Images of a and b under the two generating involutions, as letter lists
# (generator, +-1).  SWAP: a <-> b.  FLIP: a -> b^-1 a^-1, b -> b.
_INVOLUTIONS = {
    "i1": {"a": (("b", 1),), "b": (("a", 1),)},
    "i2": {"a": (("b", -1), ("a", -1)), "b": (("b", 1),)},
}


def substitute(images, letters):
    """Apply a substitution a -> images['a'], b -> images['b'] to letters."""
    out = []
    for g, s in letters:
        image = images[g]
        if s < 0:
            image = tuple((h, -t) for h, t in reversed(image))
        out.extend(image)
    return free_reduce(out)


def free_reduce(letters):
    stack = []
    for g, s in letters:
        if stack and stack[-1] == (g, -s):
            stack.pop()
        else:
            stack.append((g, s))
    return tuple(stack)


def to_letters(syllables):
    out = []
    for g, e in syllables:
        out.extend([(g, 1 if e > 0 else -1)] * abs(e))
    return tuple(out)


def to_syllables(letters):
    out = []
    for g, s in letters:
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + s)
        else:
            out.append((g, s))
    return tuple((g, e) for g, e in out if e)


def composed_endo(sequence):
    """Images of a and b under s_k o ... o s_1 for the sequence (s_1..s_k)."""
    images = {"a": (("a", 1),), "b": (("b", 1),)}
    for name in sequence:
        outer = _INVOLUTIONS[name]
        images = {g: substitute(outer, images[g]) for g in "ab"}
    return {g: to_syllables(images[g]) for g in "ab"}


def _tower_pool(rng):
    c = TOWER_COUNTS
    jobs = []
    jobs += [{"kind": "lifts", "endo": name, "n": n} for n, name in LIFTS]
    jobs += [{"kind": "order", "n": ORDER_N, "g": _element_of_order_n(rng, ORDER_N)}
             for _ in range(c["order"])]
    for _ in range(c["pow"]):
        n = rng.choice(TOWER_NS)
        jobs.append({"kind": "pow", "n": n, "g": tuple(rng.randrange(n) for _ in range(3)),
                     "k": rng.randint(-10**6, 10**6)})
    for _ in range(c["eval_word"]):
        jobs.append({"kind": "eval_word", "n": rng.choice(TOWER_NS),
                     "word": _rand_word(rng, EVAL_WORD_LETTERS)})
    letters, k = WORD_POW
    for _ in range(c["word_pow"]):
        jobs.append({"kind": "word_pow", "word": _rand_word(rng, letters),
                     "k": k * rng.choice((1, -1))})
    for _ in range(c["witness"]):
        seq = tuple(rng.choice(("i1", "i2")) for _ in range(rng.randint(1, 6)))
        jobs.append({"kind": "witness", "sequence": seq, "images": composed_endo(seq)})
    for n, sets in STABILIZER_SETS:
        for _ in range(sets):
            for family in ("P", "Q", "Qprime"):
                k = rng.randrange(n)
                jobs.append({"kind": "stabilizer", "family": family, "k": k, "n": n})
                jobs.append({"kind": "orbit", "family": family, "k": k, "n": n})
    for _ in range(c["fermat_sets"]):
        jobs += [{"kind": "fermat_aut", "n": n} for n in (3, 4, 5, 6)]
    jobs += [{"kind": "audit", "n_max": AUDIT_N_MAX[i % len(AUDIT_N_MAX)]}
             for i in range(c["audit"])]
    jobs += [{"kind": "heisenberg_genus", "n": rng.randint(2, 5000)}
             for _ in range(c["heisenberg_genus"])]
    jobs += [_rh_job(rng) for _ in range(c["rh_genus"])]
    return jobs


def rh_genus_value(base_genus, order, indices):
    """Riemann-Hurwitz genus, or None when it is not a nonnegative integer."""
    doubled = order * (2 * base_genus - 2 + sum(Fraction(e - 1, e) for e in indices))
    g = (doubled + 2) / 2
    return int(g) if g.denominator == 1 and g >= 0 else None


def _rh_job(rng):
    """Ramification data with an integer genus: signatures of the covers in
    the tower, with the matching group orders."""
    while True:
        n = rng.randint(3, 400)
        base = rng.choice((0, 0, 0, 1))
        order, indices = rng.choice((
            (n**3, (n, n, n)),
            (2 * n**3, (4 * n, n, 2)),
            (6 * n * n, (2, 3, 2 * n)),
            (6 * n**3, (2, 3, 2 * n)),
            (n * n, (n, n, n)),
        ))
        if all(order % e == 0 for e in indices) and \
                rh_genus_value(base, order, indices) is not None:
            return {"kind": "rh_genus", "base_genus": base, "order": order,
                    "indices": indices}


_BUILDERS = {
    "c3_pipeline": _c3_pool,
    "torsion_scan": _torsion_pool,
    "tower_queries": _tower_pool,
}


def make_pool(workload, seed):
    """The seeded pool of one workload: same seed, same jobs, same order."""
    if workload not in _BUILDERS:
        raise ValueError("unknown workload %r (choose from %s)" % (workload, WORKLOADS))
    rng = random.Random("%s:%d" % (workload, seed))
    jobs = _BUILDERS[workload](rng)
    rng.shuffle(jobs)
    return Pool(workload, seed, tuple(jobs))
