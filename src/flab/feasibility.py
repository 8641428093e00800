"""Numeric hypothesis checks for the global lifting method.

Root-datum bookkeeping for the similitude groups GSp_m and GO_m (positive
roots counted in closed form from the Cartan type, with the similitude torus
adding one to the semisimple rank), plus the arithmetic screens: very-good
primes, the oddness balance over the real places, the two prime lower
bounds, and the weight hypotheses for the local condition.

Each check returns a Verdict naming the binding constraint when it rejects;
FeasReport aggregates the verdicts and accepts only if every check accepts.
"""

from __future__ import annotations

from .errors import InvalidGroup, InvalidInput
from .rings import _check_prime

VERY_GOOD = "very-good"
SIMPLIFIED_BOUND = "p > max(17, 2(m−1))"
BIG_IMAGE_BOUND = "p − 1 > big-image bound"
ODDNESS = "oddness balance"
GO_PARITY = "m ≢ 2 (mod 4)"
SPREAD = "(p−2)/2"
DISTINCT = "pairwise distinct weights"
EQUAL_RANKS = "equal block ranks"


class GroupType:
    """A similitude group: family GSp or GO and the matrix size m."""

    __slots__ = ("family", "m")

    def __init__(self, family, m):
        if family not in ("GSp", "GO"):
            raise InvalidGroup(f"unknown family {family!r}")
        m = int(m)
        if m < 2:
            raise InvalidGroup("matrix size must be at least 2")
        if family == "GSp" and m % 2:
            raise InvalidGroup("GSp requires an even matrix size")
        self.family = family
        self.m = m

    def cartan_type(self):
        if self.family == "GSp":
            return ("C", self.m // 2)
        if self.m % 2:
            return ("B", self.m // 2)
        return ("D", self.m // 2)

    def __eq__(self, other):
        if not isinstance(other, GroupType):
            return NotImplemented
        return (self.family, self.m) == (other.family, other.m)

    def __hash__(self):
        return hash((self.family, self.m))

    def __repr__(self):
        return f"{self.family}_{self.m}"


class RootData:
    """Dimensions and invariants read off the positive-root count."""

    __slots__ = (
        "dim_g",
        "dim_b",
        "num_pos_roots",
        "rank_t",
        "coxeter_h",
        "center_order",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return f"RootData({self.as_dict()})"


def root_data(g):
    """Root datum of the similitude group: n² positive roots for B_n and C_n,
    n(n − 1) for D_n, torus rank n + 1, Coxeter number 2n (B, C) or 2n − 2
    (D), center order of the derived group 2 (Sp and even SO) or 1 (odd SO)."""
    kind, n = g.cartan_type()
    num = n * n if kind in ("B", "C") else n * (n - 1)
    rank_t = n + 1
    coxeter = 2 * n if kind in ("B", "C") else 2 * n - 2
    center = 1 if kind == "B" else 2
    return RootData(
        dim_g=2 * num + rank_t,
        dim_b=num + rank_t,
        num_pos_roots=num,
        rank_t=rank_t,
        coxeter_h=coxeter,
        center_order=center,
    )


class Verdict:
    """Outcome of one check; constraint names the binding condition."""

    __slots__ = ("accept", "constraint", "detail", "parts")

    def __init__(self, accept, constraint="", detail="", parts=None):
        self.accept = bool(accept)
        self.constraint = constraint
        self.detail = detail
        self.parts = dict(parts or {})

    def as_dict(self):
        out = {
            "accept": self.accept,
            "constraint": self.constraint,
            "detail": self.detail,
        }
        if self.parts:
            out["parts"] = self.parts
        return out

    def __repr__(self):
        word = "accept" if self.accept else "reject"
        tail = f" [{self.constraint}]" if self.constraint else ""
        return f"Verdict({word}{tail})"


def check_very_good(p, g):
    """Every prime except 2 is very good for types B, C and D."""
    p = int(p)
    if p == 2:
        return Verdict(
            False, VERY_GOOD, f"p = 2 is not very good for {g!r}"
        )
    return Verdict(True, VERY_GOOD, f"p = {p} is very good for {g!r}")


def check_oddness_balance(degree_d, h0_per_real_place, g):
    """Accept iff the field is totally real (one listed place per degree)
    and every h⁰ meets the split-Cartan equality dim G − dim B."""
    degree_d = int(degree_d)
    h0 = [int(x) for x in h0_per_real_place]
    if degree_d < 1:
        raise InvalidInput("degree must be positive")
    if len(h0) > degree_d:
        raise InvalidInput("more real places than the degree allows")
    data = root_data(g)
    floor = data.num_pos_roots
    for h in h0:
        if h < floor:
            raise InvalidInput(
                f"h0 = {h} is below the involution lower bound {floor}"
            )
    need = degree_d * floor
    have = sum(h0)
    detail = f"need {degree_d}·{floor} = {need}, listed places give {have}"
    if len(h0) != degree_d:
        return Verdict(
            False, ODDNESS, f"only {len(h0)} of {degree_d} places are real"
        )
    if any(h != floor for h in h0):
        return Verdict(False, ODDNESS, detail)
    return Verdict(True, ODDNESS, detail)


def check_prime_bounds(p, g):
    """Both prime lower bounds: the simplified p > max(17, 2(m−1)) and the
    big-image bound p − 1 > max(8·z, (h−1)·z) for even center order z,
    (2h−2)·z for odd, with h the Coxeter number."""
    p = int(p)
    data = root_data(g)
    z = data.center_order
    h = data.coxeter_h
    simplified_cut = max(17, 2 * (g.m - 1))
    if z % 2 == 0:
        big_image_cut = max(8 * z, (h - 1) * z)
    else:
        big_image_cut = max(8 * z, (2 * h - 2) * z)
    simplified_ok = p > simplified_cut
    big_image_ok = p - 1 > big_image_cut
    kind, n = g.cartan_type()
    parts = {"simplified": simplified_ok, "big_image": big_image_ok}
    if n == 1:
        parts["rank_1_caveat"] = True
    detail = (
        f"p = {p}: simplified bound needs p > {simplified_cut}; "
        f"big-image bound needs p − 1 > {big_image_cut}"
    )
    if not simplified_ok:
        return Verdict(False, SIMPLIFIED_BOUND, detail, parts)
    if not big_image_ok:
        return Verdict(False, BIG_IMAGE_BOUND, detail, parts)
    return Verdict(True, "", detail, parts)


def check_fl_hypotheses(p=None, weights_per_tau=None, group=None):
    """Weight hypotheses for the local condition plus the GO parity screen:
    per-block weights pairwise distinct, spread within (p−2)/2, equal block
    ranks, and m ≢ 2 (mod 4) for GO."""
    if group is not None and group.family == "GO" and group.m % 4 == 2:
        return Verdict(
            False, GO_PARITY, f"m = {group.m} is 2 mod 4 for GO"
        )
    if weights_per_tau is None:
        return Verdict(True, "", "no weights supplied; parity screen only")
    if p is None:
        raise InvalidInput("weight checks require p")
    p = int(p)
    blocks = [list(int(w) for w in ws) for ws in weights_per_tau]
    if not blocks:
        raise InvalidInput("at least one weight block required")
    ranks = {len(ws) for ws in blocks}
    if len(ranks) != 1:
        return Verdict(False, EQUAL_RANKS, f"block ranks {sorted(ranks)} differ")
    for tau, ws in enumerate(blocks):
        if len(set(ws)) != len(ws):
            return Verdict(
                False, DISTINCT, f"block {tau} repeats a weight"
            )
    for tau, ws in enumerate(blocks):
        spread = max(ws) - min(ws)
        if 2 * spread > p - 2:
            return Verdict(
                False,
                SPREAD,
                f"block {tau} spread {spread} exceeds (p−2)/2 for p = {p}",
            )
    return Verdict(True, "", "weights satisfy the local hypotheses")


class FeasReport:
    """Named check verdicts; accepts iff every check accepts."""

    __slots__ = ("checks",)

    def __init__(self, checks):
        self.checks = dict(checks)

    @property
    def accept(self):
        return all(v.accept for v in self.checks.values())

    def binding(self):
        return [v.constraint for v in self.checks.values() if not v.accept]

    def as_dict(self):
        return {
            "accept": self.accept,
            "checks": {name: v.as_dict() for name, v in self.checks.items()},
        }


def feasibility_report(group, p=None, degree=None, h0=None, weights=None):
    """Run every check whose inputs were supplied; a p that is not prime is
    refused with InvalidInput before any check runs."""
    checks = {}
    if p is not None:
        _check_prime(p)
        checks["very_good"] = check_very_good(p, group)
        checks["prime_bounds"] = check_prime_bounds(p, group)
    if degree is not None or h0 is not None:
        if degree is None or h0 is None:
            raise InvalidInput("oddness balance needs both degree and h0")
        checks["oddness"] = check_oddness_balance(degree, h0, group)
    go_parity_due = group.family == "GO" and group.m % 4 == 2
    if weights is not None or go_parity_due:
        checks["fl_hypotheses"] = check_fl_hypotheses(p, weights, group)
    if not checks:
        raise InvalidInput("no check inputs supplied")
    return FeasReport(checks)
