"""Finite groups over element indices 0..n-1, plus symmetric generating sets.

Two representations are supported: products of cyclic groups Z_m1 x ... x Z_mk
(every modulus at least 2), and explicit multiplication tables.  Cyclic
products index elements in mixed radix with the first modulus most
significant, so element 0 is always the identity; table groups must place the
identity at index 0.  Named builtins (dihedral, symmetric, alternating,
quaternion) are constructed as validated tables; all but dihedral, which is
one numpy broadcast, come from _table_from, which indexes a listed group
under its product.
A table, a list of row lists as JSON spells it, is validated exactly at
every order up to 2048 (2^22 entries; larger ones are refused before they
are built or read); associativity by Light's test.  The dihedral array,
built in range as intp, skips only the entry checks; every table, builtins
included, is checked to be a group.
A table group keeps its table as one read-only intp array; the cached
inverses and residues are read-only too, and an unpickled group is rebuilt
through __init__, so the arrays stay read-only in every process.  Generating
sets are walked and tested for generation on the rows as plain lists.

What depends only on a cyclic presentation (its moduli) is computed once per
process and shared read-only by every group of that presentation: the
residues, the inverses, the generation flag of a member tuple, and the
witness layer's least-preimage listing of a tuple of generator images
(FiniteGroup._shared).  One cache holds them all, bounded by the ints its
keys and values hold (_PRESENTATION_CACHE_ENTRIES = 2^18, about 2 MiB of
intp), and drops the least recently used first.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, permutations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import check_cap, load_json

__all__ = [
    "FiniteGroup",
    "GeneratingSet",
    "make_group",
    "parse_group_spec",
    "element_order",
    "make_generating_set",
    "enumerate_symmetric_generating_sets",
    "MAX_GROUP_ORDER",
    "ENUMERATION_UNIT_CAP",
]

MAX_GROUP_ORDER = 10_000
ENUMERATION_UNIT_CAP = 24
# validation builds several n x n intp arrays; 2^22 entries admits n <= 2048
_TABLE_ENTRY_CAP = 1 << 22
# |S| |G| translation entries: the largest power of two at which
# `cayleydeg build --print-graph` fits in 256 MB of address space
_TRANSLATION_ENTRY_CAP = 1 << 20
_PRESENTATION_CACHE_ENTRIES = 1 << 18


def _int_count(obj) -> int:
    """The ints an array, a tuple of them, or a scalar holds."""
    if isinstance(obj, np.ndarray):
        return obj.size
    if isinstance(obj, tuple):
        return sum(map(_int_count, obj))
    return 1


class _PresentationCache:
    """Values by key, each built once while it stays cached.  The ints that
    the cached keys and values hold total at most `bound`; the least
    recently used are dropped first, and a value larger than the bound is
    returned without being kept.  Values must be immutable (read-only
    arrays, tuples, scalars), since every caller shares them."""

    def __init__(self, bound: int):
        self.bound = bound
        self.entries = 0
        self._items: OrderedDict[tuple, tuple[object, int]] = OrderedDict()

    def get(self, key: tuple, build):
        hit = self._items.get(key)
        if hit is not None:
            self._items.move_to_end(key)
            return hit[0]
        value = build()
        size = _int_count(key) + _int_count(value)
        if size <= self.bound:
            self._items[key] = (value, size)
            self.entries += size
            while self.entries > self.bound:
                self.entries -= self._items.popitem(last=False)[1][1]
        return value


_PRESENTATIONS = _PresentationCache(_PRESENTATION_CACHE_ENTRIES)


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group on indices 0..order-1 with identity at index 0.

    A cyclic product has its moduli and no table; a table group has no moduli
    and its table, a read-only intp array with table[a, b] = a*b.
    Multiplication is exposed as left translations:
    translations(elems) has row i equal to L_s with s = elems[i], where
    L_s[g] = s*g, and inverses[a] is the inverse of a.  Every product in the
    package reads these arrays but witness._least_preimage_order, which sums
    residues from _coords to list all cosets k*s + H at once, not k by k.
    """

    order: int
    name: str
    moduli: tuple[int, ...] = ()
    table: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.table is not None:
            _read_only(self.table)

    def __reduce__(self):
        # rebuild through __init__, so an unpickled table is read-only too
        return FiniteGroup, (self.order, self.name, self.moduli, self.table)

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def _shared(self, kind: str, build, *args):
        """build(), computed once per (kind, moduli, args) while the
        presentation cache keeps it and shared by every group of these
        moduli; build() must return an immutable value.  A table group,
        which has no presentation key, builds it on every call."""
        if not self.moduli:
            return build()
        return _PRESENTATIONS.get((kind, self.moduli, *args), build)

    @cached_property
    def _coords(self) -> np.ndarray:
        # residues of every element, one row per modulus (C order: the first
        # modulus is the most significant digit); int16 holds the sum of two,
        # since every modulus is at most MAX_GROUP_ORDER < 2^14
        return self._shared("coords", lambda: _read_only(np.array(
            np.unravel_index(np.arange(self.order), self.moduli), dtype=np.int16)))

    def translations(self, elems: Sequence[int]) -> np.ndarray:
        """Left-translation rows: row i is L_s with s = elems[i], L_s[g] = s*g."""
        elems = np.asarray(elems, dtype=np.intp).reshape(-1)
        if self.moduli:
            c = self._coords
            mods = np.array(self.moduli)[:, None, None]
            sums = (c[:, elems, None] + c[:, None, :]) % mods
            return np.ravel_multi_index(tuple(sums), self.moduli)
        return self.table[elems]

    @cached_property
    def inverses(self) -> np.ndarray:
        """inverses[a] is the inverse of a."""
        if self.moduli:
            mods = np.array(self.moduli)[:, None]
            return self._shared("inverses", lambda: _read_only(
                np.ravel_multi_index(tuple(-self._coords % mods), self.moduli)))
        return _read_only(np.nonzero(self.table == 0)[1])

    def decode(self, a: int) -> tuple[int, ...]:
        """Residue tuple of a cyclic-product element."""
        if not self.moduli:
            raise ValueError("decode is only defined for cyclic-product groups")
        return tuple(self._coords[:, a].tolist())

    def encode(self, residues: Sequence[int]) -> int:
        """Index of the element with the given residue tuple."""
        if not self.moduli:
            raise ValueError("encode is only defined for cyclic-product groups")
        if len(residues) != len(self.moduli):
            raise ValueError(
                f"expected {len(self.moduli)} residues, got {len(residues)}"
            )
        for r, m in zip(residues, self.moduli):
            if not 0 <= r < m:
                raise ValueError(f"residue {r} out of range for modulus {m}")
        return int(np.ravel_multi_index(tuple(residues), self.moduli))

    def mul(self, a: int, b: int) -> int:
        return int(self.translations([a])[0, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def render(self, a: int) -> str:
        """Human-readable element: residue tuple for cyclic products."""
        if self.moduli:
            return "(" + ",".join(str(r) for r in self.decode(a)) + ")"
        return str(a)

    @cached_property
    def is_abelian(self) -> bool:
        if self.moduli:
            return True
        return bool((self.table == self.table.T).all())


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _validate_table(table: list[list[int]]) -> np.ndarray:
    """The table, a list of row lists as JSON spells it, as a read-only intp
    array, once its entries and the group axioms are checked.  The rows'
    types are checked at C level and the range in numpy; only after a check
    has failed are the entries scanned one by one, to name the first bad
    row or entry."""
    n = len(table)
    if n == 0:
        raise ValueError("multiplication table is empty")
    for row in table:
        if not (isinstance(row, list) and len(row) == n and set(map(type, row)) == {int}):
            _raise_first_bad_entry(table)
    try:
        arr = np.array(table, dtype=np.intp)
    except OverflowError:  # an int beyond intp is out of range too
        _raise_first_bad_entry(table)
    if arr.min() < 0 or arr.max() >= n:
        _raise_first_bad_entry(table)
    return _check_group_table(arr)


def _raise_first_bad_entry(table: list) -> None:
    """Name the first row that is not a list of n entries, or the first
    entry that is not an int in 0..n-1, rows in order."""
    n = len(table)
    for i, row in enumerate(table):
        if not isinstance(row, list):
            raise ValueError(f"table row {i} must be a list, got {type(row).__name__}")
        if len(row) != n:
            raise ValueError(f"table row {i} has length {len(row)}, expected {n}")
        for v in row:
            if type(v) is not int or not 0 <= v < n:
                raise ValueError(f"table entry {v!r} in row {i} is out of range")


def _check_group_table(arr: np.ndarray) -> np.ndarray:
    """arr, an n x n intp table with entries in 0..n-1, made read-only once
    it is checked to be a group: a Latin square with identity 0, two-sided
    inverses, and associative by Light's test."""
    n = len(arr)
    idx = np.arange(n)

    # Latin square: the first bad line, row i before column i
    seen = np.zeros((n, n), dtype=bool)
    seen[idx[:, None], arr] = True  # seen[i, v]: v occurs in row i
    row_ok = seen.all(axis=1)
    seen.fill(False)
    seen[arr, idx] = True  # seen[v, j]: v occurs in column j
    bad = np.flatnonzero(~(row_ok & seen.all(axis=0)))
    if bad.size:
        i = int(bad[0])
        line = "row" if not row_ok[i] else "column"
        raise ValueError(f"table {line} {i} is not a permutation of 0..{n - 1}")

    if (arr[0] != idx).any() or (arr[:, 0] != idx).any():
        raise ValueError("index 0 does not act as a two-sided identity")

    right = np.nonzero(arr == 0)[1]  # a * right[a] = 0, one per row
    bad = np.flatnonzero(arr[right, idx] != 0)
    if bad.size:
        raise ValueError(f"element {int(bad[0])} has no two-sided inverse")

    _check_associative(arr)
    arr.flags.writeable = False
    return arr


def _check_associative(t: np.ndarray) -> None:
    """Light's test: the s with (a*s)*c = a*(s*c) for all a, c are closed
    under products, so checking a generating set checks every triple.  The
    smallest element not yet reached joins the set, and every reached x then
    reaches x*s for each s in it; the identity starts out reached."""
    reached = np.zeros(len(t), dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            image = np.unique(t[np.ix_(frontier, gens)])
            frontier = image[~reached[image]]
            reached[frontier] = True
    for s in gens:
        bad = np.argwhere(t[t[:, s]] != t[:, t[s]])  # (a*s)*c against a*(s*c)
        if bad.size:
            raise ValueError(f"table is not associative at ({bad[0, 0]},{s},{bad[0, 1]})")


def _check_moduli(moduli: Sequence[int]) -> tuple[int, ...]:
    moduli = tuple(int(m) for m in moduli)
    if not moduli:
        raise ValueError("need at least one modulus")
    for m in moduli:
        if m < 2:
            raise ValueError(f"modulus {m} is invalid; every modulus must be >= 2")
    return moduli


def _cyclic_product(moduli: Sequence[int]) -> FiniteGroup:
    """The product of cycles of these moduli.  The order is checked against
    MAX_GROUP_ORDER as the product forms, so a refusal names the first
    moduli whose product passes the cap, never an order of thousands of
    digits; a refused presentation is never built, so it never reaches the
    presentation cache."""
    moduli = _check_moduli(moduli)
    order = 1
    for i, m in enumerate(moduli, 1):
        order *= m
        if order > MAX_GROUP_ORDER:
            kind = "z" + "x".join(map(str, moduli[:i]))
            if i < len(moduli):
                kind += f" (the first {i} of {len(moduli)} moduli)"
            check_cap(kind, order, MAX_GROUP_ORDER, "elements")
    return FiniteGroup(order=order, name="z" + "x".join(map(str, moduli)), moduli=moduli)


def _table_group(table: list[list[int]], name: str) -> FiniteGroup:
    if not isinstance(table, list):
        raise ValueError(f"multiplication table must be a list of rows, got {type(table).__name__}")
    check_cap("multiplication table", len(table) ** 2, _TABLE_ENTRY_CAP, "entries")
    t = _validate_table(table)
    return FiniteGroup(order=len(t), name=name, table=t)


def _dihedral_table(n: int) -> np.ndarray:
    # element f*n + k stands for s^f r^k; s r^k s = r^-k
    f1, k1, f2, k2 = np.ix_(range(2), range(n), range(2), range(n))
    k = (k2 + (1 - 2 * f2) * k1) % n
    return ((f1 ^ f2) * n + k).reshape(2 * n, 2 * n).astype(np.intp)


def _table_from(elements: list, product) -> list[list[int]]:
    """Index table of a listed group: entry [a][b] is the index of
    product(elements[a], elements[b]), so elements[0] must be the identity."""
    index = {x: i for i, x in enumerate(elements)}
    return [[index[product(x, y)] for y in elements] for x in elements]


def _perm_parity(p: tuple[int, ...]) -> int:
    inversions = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return inversions % 2


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[i] for i in q)  # (p q)(i) = p(q(i))


# +1, -1, +i, -i, +j, -j, +k, -k as (1, i, j, k) coefficient 4-tuples
_Q8 = [tuple(s * (i == a) for i in range(4)) for a in range(4) for s in (1, -1)]


def _hamilton(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    a, b, c, d = x
    e, f, g, h = y
    return (
        a * e - b * f - c * g - d * h,
        a * f + b * e + c * h - d * g,
        a * g - b * h + c * e + d * f,
        a * h + b * g - c * f + d * e,
    )


def make_group(spec) -> FiniteGroup:
    """Build a group from a moduli list, a spec string, or a table dict."""
    if isinstance(spec, FiniteGroup):
        return spec
    if isinstance(spec, str):
        return parse_group_spec(spec)
    if isinstance(spec, dict):
        if "table" not in spec:
            raise ValueError("group dict spec must contain a 'table' key")
        return _table_group(spec["table"], name="table")
    if isinstance(spec, (list, tuple)):
        return _cyclic_product(spec)
    raise ValueError(f"cannot interpret group spec {spec!r}")


def parse_group_spec(text: str) -> FiniteGroup:
    """Parse a group spec string.

    Grammar: ``zM1xM2x...`` for cyclic products, ``dihedral:N`` (or ``dN``),
    ``sym:N`` (or ``sN``, N <= 5), ``alt:N`` (or ``aN``, N <= 5), ``q8``, or a
    JSON object ``{"table": [[...]]}``.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty group spec")
    if s.startswith("{"):
        return make_group(load_json(s, "group spec"))

    low = s.lower()
    if low in ("q8", "quaternion8"):
        return _table_group(_table_from(_Q8, _hamilton), name="q8")

    head, _, arg = low.partition(":")
    if head in ("dihedral", "sym", "alt", "cyclic") and arg:
        try:
            n = int(arg)
        except ValueError:
            raise ValueError(f"bad parameter in group spec {text!r}") from None
        return _named_group(head, n)

    if low.startswith("z") and len(low) > 1:
        try:
            moduli = [int(p) for p in low[1:].split("x")]
        except ValueError:
            raise ValueError(f"bad cyclic-product spec {text!r}") from None
        return _cyclic_product(moduli)

    if low[0] in "dsa" and low[1:].isdigit():
        return _named_group({"d": "dihedral", "s": "sym", "a": "alt"}[low[0]], int(low[1:]))

    raise ValueError(f"unknown group spec {text!r}")


def _named_group(family: str, n: int) -> FiniteGroup:
    if family == "cyclic":
        return _cyclic_product([n])
    if family == "dihedral":
        if n < 1:
            raise ValueError(f"dihedral parameter must be >= 1, got {n}")
        check_cap("multiplication table", (2 * n) ** 2, _TABLE_ENTRY_CAP, "entries")
        # built as an intp array with entries in range: only the group checks
        table = _check_group_table(_dihedral_table(n))
        return FiniteGroup(order=2 * n, name=f"dihedral:{n}", table=table)
    kind = {"sym": "symmetric", "alt": "alternating"}[family]
    if not 1 <= n <= 5:
        raise ValueError(f"{kind} groups are supported for 1 <= n <= 5, got {n}")
    perms = sorted(permutations(range(n)))
    if family == "alt":
        perms = [p for p in perms if _perm_parity(p) == 0]
    return _table_group(_table_from(perms, _compose), name=f"{family}:{n}")


def element_order(G: FiniteGroup, a: int) -> int:
    """Multiplicative order of element a: the length of the cycle of L_a
    through the identity."""
    if not 0 <= a < G.order:
        raise ValueError(f"element {a} out of range for group of order {G.order}")
    row = G.translations([a])[0].tolist()
    o = 1
    x = a
    while x != 0:
        x = row[x]
        o += 1
    return o


@dataclass(frozen=True)
class GeneratingSet:
    """A symmetric, identity-free subset of a group, split by element order.

    order2 holds the elements s with s = s^-1, sorted ascending.  pairs holds
    one (x, x^-1) tuple per inverse pair with x the smaller index, sorted by
    x.  Every builder emits this canonical order, so two sets are equal
    exactly when they have the same elements and generation flag.  d = t +
    len(pairs) counts "directions"; |elements| = 2d - t.
    """

    order2: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    generates: bool

    @property
    def t(self) -> int:
        return len(self.order2)

    @property
    def d(self) -> int:
        return len(self.order2) + len(self.pairs)

    @property
    def size(self) -> int:
        return len(self.order2) + 2 * len(self.pairs)

    @property
    def elements(self) -> frozenset[int]:
        return frozenset(self.sorted_elements())

    def sorted_elements(self) -> tuple[int, ...]:
        return tuple(sorted(chain(self.order2, *self.pairs)))

    def images(self) -> tuple[int, ...]:
        """Canonical direction representatives: order-2 first, then pair reps."""
        return self.order2 + tuple(p[0] for p in self.pairs)


def _generates(rows: list[list[int]]) -> bool:
    """Whether the elements with these translation rows generate the group:
    a depth-first search from the identity along the rows."""
    seen = bytearray(len(rows[0]))
    seen[0] = 1
    stack = [0]
    while stack:
        g = stack.pop()
        for row in rows:
            h = row[g]
            if not seen[h]:
                seen[h] = 1
                stack.append(h)
    return all(seen)


def make_generating_set(
    G: FiniteGroup, elems: Iterable[int], allow_nongenerating: bool = False
) -> GeneratingSet:
    """Validate a symmetric generating set and compute its canonical split;
    |S| |G| above _TRANSLATION_ENTRY_CAP raises BudgetExceeded before any row."""
    elements = frozenset(int(x) for x in elems)
    if not elements:
        raise ValueError("generating set is empty")
    for x in elements:
        if not 0 <= x < G.order:
            raise ValueError(f"element {x} out of range for group of order {G.order}")
    if 0 in elements:
        raise ValueError("generating set contains the identity")
    inv = G.inverses.tolist()
    for x in elements:
        if inv[x] not in elements:
            raise ValueError(
                f"set is not symmetric: inverse of {x} is {inv[x]}, which is missing"
            )

    check_cap("translation table", len(elements) * G.order, _TRANSLATION_ENTRY_CAP, "entries")
    members = tuple(sorted(elements))
    generates = G._shared(
        "generates", lambda: _generates(G.translations(members).tolist()), members)
    if not generates and not allow_nongenerating:
        raise ValueError("set does not generate the group (pass allow_nongenerating to accept)")
    return GeneratingSet(
        order2=tuple(x for x in members if inv[x] == x),
        pairs=tuple((x, inv[x]) for x in members if x < inv[x]),
        generates=generates,
    )


def enumerate_symmetric_generating_sets(
    G: FiniteGroup,
    max_size: int | None = None,
) -> Iterator[GeneratingSet]:
    """Yield every symmetric generating set of G with at most max_size elements.

    A symmetric identity-free subset is a union of involutions and whole
    inverse pairs, so enumeration walks subsets of that unit structure.  Units
    are ordered involutions first (ascending), then pairs (by smaller member),
    and subsets are visited in increasing binary-counter order over that unit
    list, which makes the output order deterministic.  The walk visits
    2^u - 1 subsets for u units; more than ENUMERATION_UNIT_CAP units raise
    BudgetExceeded at the call, before the walk starts.
    """
    inv = G.inverses.tolist()
    units: list[tuple[int, ...]] = [(x,) for x in range(1, G.order) if inv[x] == x]
    # involutions are bits 0..t-1 of a mask, pairs the bits above them
    t, low = len(units), (1 << len(units)) - 1
    units += [(x, inv[x]) for x in range(1, G.order) if x < inv[x]]
    u = len(units)
    check_cap(G.name, u, ENUMERATION_UNIT_CAP, "involutions and inverse pairs")
    limit = max_size if max_size is not None else G.order

    def walk() -> Iterator[GeneratingSet]:
        rows = G.translations(range(G.order)).tolist()
        for mask in range(1, 1 << u):
            if (mask & low).bit_count() + 2 * (mask >> t).bit_count() > limit:
                continue
            chosen = []
            m = mask
            while m:  # one step per chosen unit, lowest bit first
                bit = m & -m
                chosen.append(units[bit.bit_length() - 1])
                m ^= bit
            if not _generates([rows[x] for unit in chosen for x in unit]):
                continue
            yield GeneratingSet(
                order2=tuple(unit[0] for unit in chosen if len(unit) == 1),
                pairs=tuple(unit for unit in chosen if len(unit) == 2),
                generates=True,
            )

    return walk()
