"""Fusion rings: SU(2)-type, SO(3)-type (its even part), and word rings over Z/sZ.

Irreducible labels are plain data: an integer k for the u_k families, a
tuple of letters in {1, ..., s} for the word family (the class of 0 is
written as the letter s).  The K-theory level build stores words packed as
``bytes`` (``pack``; a letter fits a byte when s <= 255): the word
arithmetic takes either type and answers in its operands' type, so a
caller that passes tuples gets tuples back.  A fusion vector is a dict
mapping labels to integer multiplicities with no stored zeros.  The ring
object carries the family tag and the memoized powers, so labels never
need to; a product of two labels, and a dim, is computed afresh on every
call.
Within one call of ``times_each`` the word ring multiplies each distinct
tail once: a product r_x r_y reads only the last |y| + 1 letters of x, and
the rest of x is a prefix of every term, and each distinct term is one
object shared by every column it is in.  Nothing is kept across calls.

The word family (s >= 1) follows the two monoid rules

    involution   (i_1 ... i_k)~ = (-i_k) ... (-i_1)
    fusion       (i_1 ... i_k) . (j_1 ... j_l) = i_1 ... (i_k + j_1) ... j_l

with the tensor decomposition summing, over all splittings x = vz and
y = z~ w, the concatenation term vw plus the fused term v.w (undefined
when v or w is empty).  Multiplicities from distinct splittings add up;
the associativity tests pin that reading down.
"""

from __future__ import annotations

import re

from .errors import (
    InconsistentDimension,
    ModulusMismatch,
    NotReachable,
    OddLabel,
    ParseError,
    PreconditionError,
    WrongFamily,
)
from .partitions import merge_blocks

DEFAULT_LEVEL_CAP = 32
# the powers of the fundamental that the chain-group and (C2) searches scan
SEARCH_LEVEL_CAP = 10


# ---------------------------------------------------------------------------
# Raw word operations (letters in 1..s; the letter s represents the class 0).
# A word is a tuple or bytes; every result has the type of its operands.
# ---------------------------------------------------------------------------


def _involution(letters, s: int):
    return type(letters)((-x) % s or s for x in reversed(letters))


def _fusion(a, b, s: int):
    if not a or not b:
        return None
    merged = (a[-1] + b[0]) % s or s
    return a[:-1] + type(a)((merged,)) + b[1:]


def _pair_product(x, y, s: int) -> dict:
    """r_x tensor r_y expanded over all cancelable splittings, as words of x's type.

    The splittings x = vz, y = z~ w are taken by t = len(z) ascending.  The
    z of length t cancels exactly when the one of length t - 1 does and
    y[t-1] is the negative of x[-t], so the first mismatch ends the search.
    """
    out: dict[tuple[int, ...], int] = {}
    for t in range(min(len(x), len(y)) + 1):
        if t and y[t - 1] != ((-x[-t]) % s or s):
            break
        v, w = x[: len(x) - t], y[t:]
        concat = v + w
        out[concat] = out.get(concat, 0) + 1
        fused = _fusion(v, w, s)
        if fused is not None:
            out[fused] = out.get(fused, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Vector helpers (fusion vectors are plain dicts label -> multiplicity).
# ---------------------------------------------------------------------------


def _add_scaled(acc: dict, vec: dict, factor: int) -> None:
    for label, mult in vec.items():
        new = acc.get(label, 0) + factor * mult
        if new:
            acc[label] = new
        else:
            del acc[label]


def _freeze(vec: dict) -> tuple:
    return tuple(sorted(vec.items()))


# ---------------------------------------------------------------------------
# Rings.
# ---------------------------------------------------------------------------


class FusionRing:
    """Base class; subclasses define labels and the pair product."""

    family: str = "?"

    def __init__(self):
        self._power_cache: dict[tuple, list[dict]] = {}

    # subclass surface -------------------------------------------------

    def trivial(self):
        raise NotImplementedError

    def fundamental(self) -> dict:
        raise NotImplementedError

    def _pair(self, a, b) -> dict:
        raise NotImplementedError

    def conjugate(self, label):
        raise NotImplementedError

    def _grade(self, label) -> int | None:
        """The degree read off the label, None when no power contains it."""
        raise NotImplementedError

    def format_label(self, label) -> str:
        raise NotImplementedError

    def parse_label(self, text: str):
        raise NotImplementedError

    def dim(self, label, n: int) -> int:
        raise NotImplementedError

    # shared machinery ---------------------------------------------------

    def decompose(self, a, b) -> dict:
        return self._pair(a, b)

    def multiply(self, va: dict, vb: dict) -> dict:
        out: dict = {}
        for a, ma in va.items():
            for b, mb in vb.items():
                _add_scaled(out, self.decompose(a, b), ma * mb)
        return out

    def times_each(self, labels, vec: dict) -> dict:
        """{x: x vec} for every label x, each product computed in this call."""
        return {x: self.multiply({x: 1}, vec) for x in labels}

    def vector_power(self, generator: dict, exponent: int) -> dict:
        """generator^(tensor exponent), memoized level by level."""
        if exponent < 0:
            raise PreconditionError("exponent must be >= 0")
        key = _freeze(generator)
        levels = self._power_cache.setdefault(key, [{self.trivial(): 1}])
        while len(levels) <= exponent:
            levels.append(self.multiply(levels[-1], generator))
        return levels[exponent]

    def power(self, exponent: int) -> dict:
        return self.vector_power(self.fundamental(), exponent)

    def sort_key(self, label):
        return (self._grade(label), label)

    def pack(self, label):
        """The label as ``build_levels`` stores it; the same label here."""
        return label

    def in_order(self, labels) -> list:
        """The labels as a list in the ring's order, ``sort_key``."""
        return sorted(labels, key=self.sort_key)

    def degree(self, label, level_cap: int = DEFAULT_LEVEL_CAP) -> int:
        """Smallest power of the fundamental containing the label.

        Every ring is graded by it, so it is read off the label: the label
        itself on the SU(2) ladder, half of it on the SO(3) ladder, and the
        letter sum of a word.
        """
        found = self._grade(label)
        if found is not None and found <= level_cap:
            return found
        raise NotReachable(
            f"{self.format_label(label)} not found in powers up to {level_cap}"
        )

    def irreducibles_up_to_degree(self, cap: int) -> list:
        """All labels of degree <= cap, in sort order."""
        seen = set()
        for ell in range(cap + 1):
            seen.update(self.power(ell))
        return self.in_order(seen)


class SU2Ring(FusionRing):
    """Labels u_k, k >= 0; the SU(2) ladder rule."""

    family = "su2"

    def trivial(self):
        return 0

    def fundamental(self) -> dict:
        return {1: 1}

    def _pair(self, a: int, b: int) -> dict:
        return {m: 1 for m in range(abs(a - b), a + b + 1, 2)}

    def conjugate(self, label: int) -> int:
        return label

    def _grade(self, label: int) -> int | None:
        return label if label >= 0 else None

    def format_label(self, label: int) -> str:
        return f"u{label}"

    def parse_label(self, text: str) -> int:
        m = re.fullmatch(r"u(\d+)", text.strip())
        if not m:
            raise ParseError(f"bad label {text!r} for family {self.family}")
        return int(m.group(1))

    def _ladder(self, label: int, n: int) -> tuple[int, int]:
        """The first rung's dim and the step factor at n; ``SO3Ring`` has its own."""
        if n < 2:
            raise InconsistentDimension("SU(2)-type dims need n >= 2")
        return n, n

    def dim(self, label: int, n: int) -> int:
        """d_0 = 1, d_1 = first, d_(r+1) = step d_r - d_(r-1) at rung r, the degree."""
        first, step = self._ladder(label, n)
        rung = self._grade(label)
        if rung is None:
            raise NotReachable(f"{self.format_label(label)} lies in no power of the fundamental")
        if rung == 0:
            return 1
        prev, cur = 1, first
        for _ in range(rung - 1):
            prev, cur = cur, step * cur - prev
        if cur <= 0:
            raise InconsistentDimension(f"dim u_{label} <= 0 at n={n}")
        return cur


class SO3Ring(SU2Ring):
    """The even sub-ladder u_{2k} of the SU(2) ladder; u_{2k} has degree k."""

    family = "so3"

    @staticmethod
    def _check_even(label: int) -> None:
        if label % 2:
            raise OddLabel(f"SO(3)-type labels must be even, got {label}")

    def fundamental(self) -> dict:
        # the natural representation splits as trivial plus u_2
        return {0: 1, 2: 1}

    def _pair(self, a: int, b: int) -> dict:
        self._check_even(a)
        self._check_even(b)
        return super()._pair(a, b)

    def _grade(self, label: int) -> int | None:
        return label // 2 if label >= 0 and label % 2 == 0 else None

    def parse_label(self, text: str) -> int:
        label = super().parse_label(text)
        self._check_even(label)
        return label

    def _ladder(self, label: int, n: int) -> tuple[int, int]:
        # u_2 (x) u_2r = u_(2r-2) + u_2r + u_(2r+2): the step is dim u_2 - 1
        self._check_even(label)
        if n < 4:
            raise InconsistentDimension("SO(3)-type dims need n >= 4")
        return n - 1, n - 2


class HWordRing(FusionRing):
    """Words over Z/sZ; the fundamental is the one-letter word (1).

    Dimensions follow the quantum-group values: a single letter j < s has
    dimension n, the letter s has dimension n - 1 (it is the block fixed
    by relabeling the cyclic group), and longer words are forced by the
    product expansions, which are triangular in (degree, length).  For
    s = 1 the fundamental is the letter s itself, so its dimension is
    n - 1; the suite cross-checks these values against ranks of the
    partition-level projections.
    """

    family = "hword"

    def __init__(self, s: int):
        if s < 1:
            raise PreconditionError("s must be >= 1")
        super().__init__()
        self.s = s
        self._letters = frozenset(range(1, s + 1))

    def trivial(self):
        return ()

    def fundamental(self) -> dict:
        return {(1,): 1}

    def _pair(self, a: tuple, b: tuple) -> dict:
        return _pair_product(a, b, self.s)

    def times_each(self, labels, vec: dict) -> dict:
        """{x: x vec}, multiplying each distinct tail of the labels once.

        With keep = max |y| + 1 over vec, a splitting of x y cancels at most
        |y| letters of x and fuses only the letter before them, so
        x = head + tail with |tail| = keep gives x y = head + (tail y) term
        by term, in the same order.  Each term goes through ``canon``, so
        equal terms of different columns are one object.  The tail products
        and ``canon`` live only for this call.
        """
        keep = max(map(len, vec), default=0) + 1
        tails: dict[tuple, dict] = {}
        canon: dict[tuple, tuple] = {}
        out = {}
        for x in labels:
            head, tail = x[:-keep], x[-keep:]
            product = tails.get(tail)
            if product is None:
                product = tails[tail] = self.multiply({tail: 1}, vec)
            out[x] = {canon.setdefault(w := head + y, w): m for y, m in product.items()}
        return out

    def sort_key(self, label):
        # the letter sum is the degree of every word in the ring
        return (sum(label), label)

    def pack(self, label):
        """The word as bytes, in the same order and with the same letters,
        sum, slices and concatenation; a tuple when s > 255."""
        return bytes(label) if self.s <= 255 else label

    def in_order(self, labels) -> list:
        """(degree, word) order: the sorted words, stably sorted by letter sum."""
        out = sorted(labels)
        out.sort(key=sum)
        return out

    def conjugate(self, label: tuple) -> tuple:
        return _involution(label, self.s)

    def _grade(self, label: tuple) -> int | None:
        return sum(label) if self._letters.issuperset(label) else None

    def format_label(self, label: tuple) -> str:
        return f"r[{','.join(map(str, label))}]@{self.s}"

    def parse_label(self, text: str) -> tuple:
        m = re.fullmatch(r"r\[\s*(\d+(?:\s*,\s*\d+)*)?\s*\](@(\d+))?", text.strip())
        if not m:
            raise ParseError(f"bad label {text!r} for family {self.family}")
        if m.group(3) is not None and int(m.group(3)) != self.s:
            raise ModulusMismatch(
                f"label modulus {m.group(3)} differs from ring modulus {self.s}"
            )
        letters = tuple(int(x) for x in m.group(1).split(",")) if m.group(1) else ()
        if not self._letters.issuperset(letters):
            raise ParseError(f"letters must lie in 1..{self.s}: {letters}")
        return letters

    def dim(self, label: tuple, n: int) -> int:
        """dim r_(y+j) = dim r_y dim r_j minus the dims of the other terms of r_y r_j.

        For one letter j those are y[:-1] + (y[-1] + j,) and, when j cancels
        y[-1], y[:-1]: prefixes of the label plus one letter.  The last
        letters each prefix needs are found from the end; row i, the dims of
        label[:i] + (c,) by c, is then filled from row i - 1 and dim label[:i-1].
        """
        if n < 2:
            raise InconsistentDimension("word-family dims need n >= 2")
        if self._grade(label) is None:
            raise NotReachable(f"{self.format_label(label)} lies in no power of the fundamental")
        s, word = self.s, type(label)
        # the last letters c whose label[:i] + (c,) the expansion reaches,
        # from i = len(label) - 1 down to 0
        needed = [{label[-1]}] if label else []
        for last in reversed(label[:-1]):
            needed.append({last} | {(last + c) % s or s for c in needed[-1]})
        head_dim, cut_dim, row = 1, 0, {}
        for i, tails in enumerate(reversed(needed)):
            if i:
                head_dim, cut_dim = row[label[i - 1]], head_dim
            head, below, row = label[:i], row, {}
            for c in tails:
                value = head_dim * (n - 1 if c == s else n)
                for gamma, mult in self.decompose(head, word((c,))).items():
                    # i + 1 letters: the word itself; i: fused; i - 1: cancelled
                    if len(gamma) == i:
                        value -= mult * below[gamma[-1]]
                    elif len(gamma) < i:
                        value -= mult * cut_dim
                if value <= 0:
                    raise InconsistentDimension(
                        f"dim {self.format_label(head + word((c,)))} = {value} at n={n}"
                    )
                row[c] = value
        return row[label[-1]] if label else 1


def get_ring(family: str, s: int | None = None) -> FusionRing:
    """A new ring for a CLI family name: O+ -> SU2, S+ -> SO3, H+ -> words."""
    if family == "O+":
        return SU2Ring()
    if family == "S+":
        return SO3Ring()
    if family == "H+":
        if s is None or s < 1:
            raise PreconditionError("family H+ needs s >= 1")
        return HWordRing(s)
    raise WrongFamily(f"no fusion ring shipped for family {family!r}")


def chain_group_order(ring: FusionRing, level_cap: int = SEARCH_LEVEL_CAP) -> int:
    """Number of co-occurrence classes of irreducibles within the cap.

    Two labels are identified when they appear in a common tensor power of
    the fundamental; the quotient is the chain group, computed here rather
    than assumed.  Returns the class count (the group is cyclic, generated
    by the class of the fundamental).  The count is certified only once
    some power 1..level_cap falls in the class of the trivial power 0, so
    that the class of the fundamental is seen to close up; otherwise
    NotReachable is raised rather than a count of the classes seen so far.
    """
    if level_cap < 0:
        raise PreconditionError("level_cap must be >= 0")
    # every label lies in some power and all labels of one power share a
    # class, so the classes of powers that share labels count them: each
    # power is joined with the first power of each of its labels
    powers = range(level_cap + 1)
    first: dict = {}
    blocks = [(ell, *{first.setdefault(lab, ell) for lab in ring.power(ell)}) for ell in powers]
    classes, _ = merge_blocks(powers, range(0), (blocks, powers))
    if len(classes[0]) == 1:
        raise NotReachable(
            f"no power 1..{level_cap} of the fundamental returns to the trivial class"
        )
    return len(classes)


def format_vector(ring: FusionRing, vec: dict) -> dict[str, int]:
    """JSON form of a fusion vector: label string -> multiplicity."""
    return {
        ring.format_label(label): vec[label]
        for label in sorted(vec, key=ring.format_label)
    }
