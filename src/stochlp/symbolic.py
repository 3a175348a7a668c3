"""Exact calculus over sums of guarded terms.

A SymbolicSum is a finite sum of region buckets.  Each bucket pairs a guard
chain (a strict total order over its support of variables and rational
constants, denoting the product of Heaviside factors of consecutive
differences) with polynomial-exponential terms c * e^q * prod v^a * prod
e^(b*v), coefficients kept as exact rationals.  A term's key stores the
constant exponent q as an ``int`` when it is integral and as a ``Fraction``
otherwise; the two hash and compare alike, so only the cost of hashing
differs.  Operations that would create incomparable atoms split into all
linear extensions, so chains stay total.

Coefficients: a sum at rest holds nonzero reduced ``Fraction``s only, since
the public constructor drops zeros.  An operation builds each coefficient it
changes as an unreduced integer pair (numerator, positive denominator) and
adds the pairs without a gcd, passing the others through as the nonzero
``Fraction``s they are; so within an operation only a pair can be zero.
``SymbolicSum._own`` settles both in one pass over each bucket: it reduces
each nonzero pair once to a ``Fraction`` and drops the zero pairs and the
buckets left empty.  FLINT's ``fmpq_poly`` keeps integer numerators for the
same reason.  ``integrate_out`` integrates each group of a region's terms
that share all but one power at once, in per-term order; it keeps the
coefficients q_j of each group's antiderivative as reduced integer pairs, one
gcd each, and places each bound once per term, not once per power.

A sum caches its free variables on the first ``free_vars`` call, since it
never changes.  ``rename`` renames variables by an order-keeping map, which
moves no key out of order, so a bag density built once serves every bag of
its shape.

A key at rest holds its powers and exps as sorted tuples of (variable,
exponent) pairs.  ``multiply`` packs them, for one call only, into one
integer per monomial with a fixed-width field per variable, so that a
monomial product is one integer addition; it decodes each distinct product
back into sorted tuples before it returns.  These are the packed exponent
vectors of Monagan and Pearce, "Polynomial division using dynamic arrays,
heaps, and packed exponent vectors" (CASC 2007), as in FLINT's
``fmpz_mpoly``.

Equality is almost-everywhere equality: boundaries between regions carry no
mass.  Substituting a value that lands exactly on a boundary resolves ties as
if the substituted atom were infinitesimally above its value, i.e. a
limit-from-inside convention; this is exact whenever the represented function
is continuous across that boundary, which holds at every substitution the
solvers perform.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator, Mapping, Union

import mpmath

from .errors import Budget, BudgetExceeded, DivergentIntegral, InputError

# atoms: ("c", Fraction) constants, ("v", int) variables
Atom = tuple[str, object]
Chain = tuple[Atom, ...]
# term key: (powers, exps, e_const) with powers/exps sorted tuples of (var, n),
# n nonzero; e_const an int when integral, else a Fraction (an int hashes
# cheaply and equals the Fraction of the same value); every sum holds its keys
# in this form, and only multiply packs them, within one call
TermKey = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], Union[int, Fraction]]
# an unreduced coefficient n/d as integers, d > 0, as operations build them;
# a Coeff is one of those or a reduced Fraction an operation passes through
Pair = tuple[int, int]
Coeff = Union[Fraction, Pair]

ZERO_ATOM: Atom = ("c", Fraction(0))

# evaluate starts at _EVAL_DPS digits and doubles them up to _EVAL_MAX_DPS
_EVAL_DPS = 40
_EVAL_MAX_DPS = _EVAL_DPS * 2**8


def const_atom(value) -> Atom:
    return ("c", Fraction(value))


def var_atom(v: int) -> Atom:
    return ("v", v)


def _chain_consistent(chain: Chain) -> bool:
    """Distinct atoms, constants strictly increasing along the chain."""
    if len(set(chain)) != len(chain):
        return False
    last: Fraction | None = None
    for kind, val in chain:
        if kind == "c":
            if last is not None and val <= last:
                return False
            last = val
    return True


def _key_pow(powers: Mapping[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((v, n) for v, n in powers.items() if n))


def _key_const(q) -> Union[int, Fraction]:
    """The e_const of a term key: an int when q is integral."""
    return q.numerator if q.denominator == 1 else q


_UNIT_KEY: TermKey = ((), (), 0)


class SymbolicSum:
    """Immutable canonical sum of guarded polynomial-exponential terms.

    The public constructor copies the mapping it is given, dropping
    inconsistent chains, zero coefficients and regions left empty; it adds
    nothing up.  Every operation merges its terms into one fresh bucket per
    guard chain and hands those buckets to ``_own``.  Buckets are never
    changed once a sum holds them.
    """

    __slots__ = ("regions", "_free")

    def __init__(self, regions: Mapping[Chain, Mapping[TermKey, Fraction]] | None = None):
        self.regions: dict[Chain, dict[TermKey, Fraction]] = {}
        self._free: frozenset[int] | None = None
        for chain, terms in (regions or {}).items():
            if not _chain_consistent(chain):
                continue
            kept = {key: coeff for key, coeff in terms.items() if coeff}
            if kept:
                self.regions[chain] = kept

    @classmethod
    def _own(cls, regions: dict[Chain, dict[TermKey, Coeff]],
             budget: Budget | None = None) -> "SymbolicSum":
        """Sum holding ``regions`` itself: consistent chains, buckets no
        caller keeps.  Settles the coefficients in one pass over each bucket
        (see the module docstring), equal pairs sharing one ``Fraction``;
        region and term order match the public constructor's."""
        made: dict[Pair, Fraction] = {}
        dirty = []
        for chain, bucket in regions.items():
            zero = not bucket
            for key, c in bucket.items():
                if type(c) is tuple:
                    if c[0]:
                        q = made.get(c)
                        if q is None:
                            q = made[c] = Fraction(*c)
                        bucket[key] = q
                    else:
                        zero = True
            if zero:
                dirty.append((chain, bucket))
        for chain, bucket in dirty:
            kept = {key: c for key, c in bucket.items() if type(c) is not tuple}
            if kept:
                regions[chain] = kept
            else:
                del regions[chain]
        s = object.__new__(cls)
        s.regions = regions
        s._free = None
        if budget is not None:
            budget.note_regions(len(regions))
            budget.note_terms(s.term_count())
        return s

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "SymbolicSum":
        return cls()

    @classmethod
    def const(cls, value) -> "SymbolicSum":
        return cls({(): {_UNIT_KEY: Fraction(value)}})

    @classmethod
    def one(cls) -> "SymbolicSum":
        return cls.const(1)

    @classmethod
    def guard(cls, low: Atom, high: Atom) -> "SymbolicSum":
        """Indicator H(high - low) as a single chain low < high."""
        if low == high:
            return cls.one()
        return cls({(low, high): {_UNIT_KEY: Fraction(1)}})

    @classmethod
    def term(cls, coeff, powers: Mapping[int, int] | None = None,
             exps: Mapping[int, int] | None = None, e_const=0,
             chain: Chain = ()) -> "SymbolicSum":
        key = (_key_pow(powers or {}), _key_pow(exps or {}), _key_const(Fraction(e_const)))
        return cls({chain: {key: Fraction(coeff)}})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.regions

    def term_count(self) -> int:
        return sum(len(t) for t in self.regions.values())

    def free_vars(self) -> frozenset[int]:
        """The variables the sum names, found on the first call and kept,
        since a sum never changes."""
        if self._free is None:
            out: set[int] = set()
            for chain, terms in self.regions.items():
                out.update(v for kind, v in chain if kind == "v")
                for powers, exps, _ in terms:
                    out.update(v for v, _ in powers)
                    out.update(v for v, _ in exps)
            self._free = frozenset(out)
        return self._free

    def canonical_text(self) -> str:
        """Deterministic text form (sorted regions and terms) for golden tests."""
        def atom_s(a: Atom) -> str:
            return str(a[1]) if a[0] == "c" else f"z{a[1]}"

        lines = []
        for chain in sorted(self.regions, key=lambda ch: (len(ch), [str(a) for a in ch])):
            guard = " < ".join(atom_s(a) for a in chain) if chain else "true"
            parts = []
            # the order of the keys' text with e_const a Fraction, whatever
            # type the key holds: an int e_const prints differently
            for key in sorted(self.regions[chain],
                              key=lambda k: str((k[0], k[1], Fraction(k[2])))):
                powers, exps, e_const = key
                coeff = self.regions[chain][key]
                factors = [str(coeff)]
                if e_const:
                    factors.append(f"e^({e_const})")
                factors += [f"z{v}^{n}" for v, n in powers]
                factors += [f"e^({n}*z{v})" for v, n in exps]
                parts.append("*".join(factors))
            lines.append(f"[{guard}] " + " + ".join(parts))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SymbolicSum({len(self.regions)} regions, {self.term_count()} terms)"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "SymbolicSum") -> "SymbolicSum":
        merged = {chain: dict(terms) for chain, terms in self.regions.items()}
        for chain, terms in other.regions.items():
            bucket = merged.get(chain)
            if bucket is None:
                merged[chain] = dict(terms)
            else:
                for key, c in terms.items():
                    _add(bucket, key, c)
        return SymbolicSum._own(merged)

    def scale(self, c) -> "SymbolicSum":
        q = Fraction(c)
        n, d = q.numerator, q.denominator
        return SymbolicSum._own({
            chain: {key: (coeff.numerator * n, coeff.denominator * d)
                    for key, coeff in terms.items()}
            for chain, terms in self.regions.items()
        })

    def __sub__(self, other: "SymbolicSum") -> "SymbolicSum":
        return self + other.scale(-1)


def _interleavings(c1: Chain, c2: Chain) -> tuple[Chain, ...]:
    """All linear extensions of the union of two total orders, none when the
    orders contradict; shared atoms are merged, constants must come out
    strictly increasing.  Both chains are consistent, as every sum's chains
    are, so an empty one leaves the other as the only extension."""
    if not c1:
        return (c2,)
    if not c2:
        return (c1,)
    return tuple(_extensions(c1, c2))


def _extensions(c1: Chain, c2: Chain) -> Iterator[Chain]:
    pos1 = {a: i for i, a in enumerate(c1)}
    pos2 = {a: i for i, a in enumerate(c2)}

    def rec(i: int, j: int) -> Iterator[tuple[Atom, ...]]:
        if i == len(c1) and j == len(c2):
            yield ()
            return
        if i < len(c1) and j < len(c2) and c1[i] == c2[j]:
            for rest in rec(i + 1, j + 1):
                yield (c1[i],) + rest
            return
        if i < len(c1):
            a = c1[i]
            if pos2.get(a, -1) < j:  # not pending in c2
                for rest in rec(i + 1, j):
                    yield (a,) + rest
        if j < len(c2):
            b = c2[j]
            if pos1.get(b, -1) < i:
                for rest in rec(i, j + 1):
                    yield (b,) + rest

    for chain in rec(0, 0):
        if _chain_consistent(chain):
            yield chain


def _is_guard(s: SymbolicSum) -> bool:
    """Whether s is a single guard chain (possibly empty) times 1."""
    if len(s.regions) != 1:
        return False
    (terms,) = s.regions.values()
    return len(terms) == 1 and terms.get(_UNIT_KEY) == 1


# a packed monomial with its term's e_const and unreduced coefficient
Packed = tuple[int, Union[int, Fraction], int, int]


def _packing(a: SymbolicSum, b: SymbolicSum):
    """Packed monomials for the products of ``multiply(a, b)``.

    Each variable in either factor's keys gets a power field and an exp field
    of one width, wide enough for a sum of two exponents offset by 2m, where
    m is the factors' largest |exponent|; fields run over the variables in
    increasing order, all powers below all exps.  The left factor's monomials
    carry the offset in every field and the right's none, so a product's
    packed monomial is the sum of its factors'.  Packing is one-to-one on
    keys, so products keyed by packed monomials group and keep their first
    order as products keyed by tuples do.  Returns the left offset, the
    packer of one bucket and the decoder of one packed product."""
    variables: set[int] = set()
    top = 1
    for s in (a, b):
        for terms in s.regions.values():
            for powers, exps, _ in terms:
                for v, n in powers + exps:
                    variables.add(v)
                    if abs(n) > top:
                        top = abs(n)
    order = sorted(variables)
    k = len(order)
    size = ((4 * top).bit_length() + 7) // 8  # whole bytes, so to_bytes splits the fields
    bias = 2 * top
    power_at = {v: 8 * size * i for i, v in enumerate(order)}
    exp_at = {v: 8 * size * (k + i) for i, v in enumerate(order)}
    offset = sum(bias << (8 * size * i) for i in range(2 * k))

    def pack(terms: Mapping[TermKey, Fraction], base: int) -> list[Packed]:
        out = []
        for (powers, exps, q), c in terms.items():
            m = base
            for v, n in powers:
                m += n << power_at[v]
            for v, n in exps:
                m += n << exp_at[v]
            out.append((m, q, c.numerator, c.denominator))
        return out

    def unpack(m: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        raw = m.to_bytes(2 * k * size, "little")
        fields = raw if size == 1 else [int.from_bytes(raw[i:i + size], "little")
                                        for i in range(0, len(raw), size)]
        return (tuple([(v, n - bias) for v, n in zip(order, fields[:k]) if n != bias]),
                tuple([(v, n - bias) for v, n in zip(order, fields[k:]) if n != bias]))

    return offset, pack, unpack


def _add(bucket: dict[TermKey, Coeff], key: TermKey, c: Coeff) -> None:
    """Add c into ``bucket[key]``; a sum is an unreduced pair."""
    old = bucket.get(key)
    if old is None:
        bucket[key] = c
        return
    n1, d1 = old if type(old) is tuple else (old.numerator, old.denominator)
    n2, d2 = c if type(c) is tuple else (c.numerator, c.denominator)
    bucket[key] = (n1 + n2, d1) if d1 == d2 else (n1 * d2 + n2 * d1, d1 * d2)


def multiply(a: SymbolicSum, b: SymbolicSum, budget: Budget | None = None) -> SymbolicSum:
    """Product of two sums; overlapping guard chains split into all linear
    extensions of their union.

    Each product is an unreduced integer pair, keyed by its packed monomial
    and e_const (see ``_packing``) until the end, when each distinct packed
    monomial is decoded once.  When one factor is a guard chain times 1, the
    other factor's terms are the products; they are reused, reduced as they
    are, instead of multiplied out, with the same work charged."""
    out: dict[Chain, dict] = {}
    unit_a = _is_guard(a)
    unit_b = not unit_a and _is_guard(b)
    general = not (unit_a or unit_b)
    if general:
        offset, pack, unpack = _packing(a, b)
        packed_b = {ch2: pack(terms2, 0) for ch2, terms2 in b.regions.items()}
    pending_terms = 0
    for ch1, terms1 in a.regions.items():
        if general:
            packed1 = pack(terms1, offset)
        for ch2, terms2 in b.regions.items():
            if budget is not None:
                budget.charge_work(len(terms1) * len(terms2))
            chains = _interleavings(ch1, ch2)
            if not chains:
                continue  # contradictory orders: the products would all be dropped
            if not general:
                prods = terms2 if unit_a else terms1
            else:
                prods = {}
                for m1, q1, n1, d1 in packed1:
                    for m2, q2, n2, d2 in packed_b[ch2]:
                        _add(prods, (m1 + m2, q1 + q2), (n1 * n2, d1 * d2))
            for chain in chains:
                bucket = out.get(chain)
                if bucket is None:
                    out[chain] = dict(prods)
                else:
                    for key, c in prods.items():
                        _add(bucket, key, c)
                pending_terms += len(terms1) * len(terms2)
            if budget is not None:
                budget.note_regions(len(out))
                if pending_terms > 3 * budget.max_terms:
                    # bound transient memory before canonicalization prunes
                    budget.note_terms(pending_terms)
    if general:
        monomials: dict[int, tuple] = {}
        for chain, bucket in out.items():
            keyed = {}
            for (m, q), c in bucket.items():
                mono = monomials.get(m)
                if mono is None:
                    mono = monomials[m] = unpack(m)
                keyed[(*mono, q if type(q) is int else _key_const(q))] = c
            out[chain] = keyed
    return SymbolicSum._own(out, budget=budget)


def differentiate(s: SymbolicSum, v: int) -> SymbolicSum:
    """Classical derivative within each region (guards unchanged, a.e.)."""
    out: dict[Chain, dict[TermKey, Coeff]] = {}
    for chain, terms in s.regions.items():
        bucket = out.setdefault(chain, {})
        for (powers, exps, e_const), coeff in terms.items():
            pd = dict(powers)
            alpha = pd.get(v, 0)
            beta = dict(exps).get(v, 0)
            if alpha:
                pd[v] = alpha - 1
                _add(bucket, (_key_pow(pd), exps, e_const),
                     (coeff.numerator * alpha, coeff.denominator))
            if beta:
                _add(bucket, (powers, exps, e_const), (coeff.numerator * beta, coeff.denominator))
    return SymbolicSum._own(out)


def _split(p: tuple[tuple[int, int], ...], v: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """A key's powers (or exps) without variable v, and v's degree there."""
    for i, (w, n) in enumerate(p):
        if w == v:
            return p[:i] + p[i + 1:], n
    return p, 0


def _with(p: tuple[tuple[int, int], ...], w: int, n: int) -> tuple[tuple[int, int], ...]:
    """A key's powers (or exps) times w^n: n added to w's degree in place,
    or (w, n) inserted in order; a degree that cancels to 0 is dropped."""
    for i, (u, m) in enumerate(p):
        if u >= w:
            if u > w:
                return p[:i] + ((w, n),) + p[i:]
            m += n
            return p[:i] + ((w, m),) + p[i + 1:] if m else p[:i] + p[i + 1:]
    return p + ((w, n),)


def _shifted(e_const, beta: int, num: int, den: int) -> Union[int, Fraction]:
    """A key's e_const plus beta * num/den, in one reduction, or none when
    all is integral."""
    e_num, e_den = e_const.numerator, e_const.denominator
    if den == e_den == 1:
        return e_num + beta * num
    return _key_const(Fraction(e_num * den + beta * num * e_den, e_den * den))


def _at_atom(powers: tuple[tuple[int, int], ...], exps: tuple[tuple[int, int], ...], e_const,
             coeff: Fraction, alpha: int, beta: int, atom: Atom) -> tuple[TermKey, Coeff]:
    """Key and coefficient of the term coeff * e^e_const * powers * exps
    times z^alpha * e^(beta*z), with z put at ``atom``.  ``powers`` and
    ``exps`` are key tuples over the other variables; a coefficient that
    changes comes back as an unreduced pair."""
    if atom[0] == "c":
        value = atom[1]
        num, den = value.numerator, value.denominator
        if beta:
            e_const = _shifted(e_const, beta, num, den)
        if alpha:
            coeff = (coeff.numerator * num**alpha, coeff.denominator * den**alpha)
        return (powers, exps, e_const), coeff
    w = atom[1]
    if alpha:
        powers = _with(powers, w, alpha)
    if beta:
        exps = _with(exps, w, beta)
    return (powers, exps, e_const), coeff


def substitute(s: SymbolicSum, v: int, value: Union[Fraction, int, Atom],
               budget: Budget | None = None) -> SymbolicSum:
    """Replace variable v by a rational value or another atom.

    Chains touched by a tie resolve as if v sat infinitesimally above the
    substituted atom: regions squeezed empty are dropped, the rest keep their
    order with the duplicate removed.
    """
    target: Atom = value if isinstance(value, tuple) else const_atom(value)
    va = var_atom(v)
    out: dict[Chain, dict[TermKey, Coeff]] = {}
    for chain, terms in s.regions.items():
        new_chain = chain
        if va in chain:
            idx = chain.index(va)
            if target in chain:
                tpos = chain.index(target)
                if tpos > idx:
                    continue  # v < ... < target contradicts v = target+eps
                if tpos < idx - 1:
                    continue  # atoms squeezed between target and v
                new_chain = chain[:idx] + chain[idx + 1:]
            else:
                new_chain = chain[:idx] + (target,) + chain[idx + 1:]
            if not _chain_consistent(new_chain):
                continue
        bucket = out.setdefault(new_chain, {})
        for (powers, exps, e_const), coeff in terms.items():
            powers, alpha = _split(powers, v)
            exps, beta = _split(exps, v)
            key, c = _at_atom(powers, exps, e_const, coeff, alpha, beta, target)
            _add(bucket, key, c)
    return SymbolicSum._own(out, budget=budget)


def rename(s: SymbolicSum, names: Mapping[int, int]) -> SymbolicSum:
    """s with each variable v named ``names[v]``.  The map must keep the
    order of the variables, so every key stays sorted and every chain keeps
    its order: regions, terms and coefficients come out as they were, in the
    same order, and no arithmetic is done."""
    order = sorted(names)
    if any(names[a] >= names[b] for a, b in zip(order, order[1:])):
        raise InputError("rename must keep the order of the variables")

    def key(p: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
        return tuple([(names[w], n) for w, n in p])

    out = {}
    for chain, terms in s.regions.items():
        out[tuple([a if a[0] == "c" else ("v", names[a[1]]) for a in chain])] = {
            (key(powers), key(exps), q): c for (powers, exps, q), c in terms.items()}
    r = SymbolicSum._own(out)
    if s._free is not None:
        r._free = frozenset(names[w] for w in s._free)
    return r


def _q_pairs(p: Mapping[int, Fraction], beta: int) -> dict[int, Pair]:
    """The coefficients q_j of Q with Q' + beta Q = P, P = sum of p_j v^j, as
    reduced pairs (numerator, positive denominator), one gcd each: Q is the
    integral of P when beta = 0, else q_j = (p_j - (j+1) q_(j+1)) / beta from
    the top power down."""
    q: dict[int, Pair] = {}
    if not beta:
        for j, c in p.items():
            num, den = c.numerator, c.denominator * (j + 1)
            g = gcd(num, den)
            q[j + 1] = (num // g, den // g)
        return q
    n, d = 0, 1  # q_(j+1)
    for j in range(max(p), -1, -1):
        c = p.get(j)
        if c is None:
            num, den = -(j + 1) * n, d * beta
        else:
            num, den = c.numerator * d - (j + 1) * n * c.denominator, c.denominator * d * beta
        if beta < 0:
            num, den = -num, -den
        g = gcd(num, den)
        n, d = q[j] = (num // g, den // g)
    return q


def integrate_out(s: SymbolicSum, v: int, upper: Atom | None = None,
                  budget: Budget | None = None) -> SymbolicSum:
    """Integrate variable v over the full line within each region.

    The bounds of v are its neighbors in the guard chain (infinite when
    absent); a non-vanishing tail at an infinite bound raises
    DivergentIntegral.  Pass ``upper`` to integrate cumulatively up to an
    atom instead: the sum is first multiplied by the guard v < upper.  A
    region's terms that differ only in v's power, P(v) e^(beta v), are
    integrated at once as Q(v) e^(beta v), Q' + beta Q = P, in per-term order.
    """
    if upper is not None:
        s = multiply(s, SymbolicSum.guard(var_atom(v), upper), budget=budget)
    va = var_atom(v)
    out: dict[Chain, dict[TermKey, Coeff]] = {}
    for chain, terms in s.regions.items():
        if va not in chain:
            # an unguarded variable integrated over the whole line diverges
            raise DivergentIntegral(f"variable z{v} is unbounded in a region")
        idx = chain.index(va)
        lo: Atom | None = chain[idx - 1] if idx > 0 else None
        hi: Atom | None = chain[idx + 1] if idx + 1 < len(chain) else None
        bucket = out.setdefault(chain[:idx] + chain[idx + 1:], {})
        groups: dict[tuple, dict] = {}
        walk = []
        for (powers, exps, e_const), coeff in terms.items():
            powers, alpha = _split(powers, v)
            exps, beta = _split(exps, v)
            walk.append(((powers, exps, e_const, beta), alpha))
            groups.setdefault(walk[-1][0], {})[alpha] = coeff
        for group, p in groups.items():
            groups[group] = _q_pairs(p, group[3])
        top: dict[tuple, int] = {}  # per group, the highest power of Q emitted
        for group, alpha in walk:
            powers, exps, e_const, beta = group
            done, q = top.get(group, -1), groups[group]
            top[group] = max(alpha, done)
            js = range(alpha, done, -1) if beta else (alpha + 1,)
            for bound, sign in ((hi, 1), (lo, -1)):
                if bound is None:
                    # value at an infinite end must vanish
                    if beta == 0 or (sign > 0 and beta > 0) or (sign < 0 and beta < 0):
                        raise DivergentIntegral(f"non-vanishing tail integrating z{v} "
                                                f"(alpha={alpha}, beta={beta})")
                    continue  # vanishing exponential tail contributes 0
                if bound[0] == "c":
                    # every power lands on one key, and v^j at the bound scales the pair
                    num, den = bound[1].numerator, bound[1].denominator
                    key = (powers, exps, _shifted(e_const, beta, num, den) if beta else e_const)
                    for j in js:
                        n, d = q[j]
                        _add(bucket, key, (sign * n * num**j, d * den**j))
                else:
                    w = bound[1]
                    placed = _with(exps, w, beta) if beta else exps
                    for j in js:
                        n, d = q[j]
                        _add(bucket, (_with(powers, w, j) if j else powers, placed, e_const),
                             (sign * n, d))
    return SymbolicSum._own(out, budget=budget)


def cumulate(s: SymbolicSum, v: int, fresh: int, lower: Atom | None = None,
             budget: Budget | None = None) -> SymbolicSum:
    """Cumulative integral: result(v) = integral of s over the dummy up to v.

    The integration variable is renamed to ``fresh``; ``lower`` optionally
    clamps the integral to start at an atom.  No solver passes it: a Taylor
    edge factor carries its own [0, x] support.
    """
    renamed = substitute(s, v, var_atom(fresh), budget=budget)
    guard = SymbolicSum.guard(var_atom(fresh), var_atom(v))
    if lower is not None:
        guard = multiply(guard, SymbolicSum.guard(lower, var_atom(fresh)))
    renamed = multiply(renamed, guard, budget=budget)
    return integrate_out(renamed, fresh, budget=budget)


def truncate_total_degree(s: SymbolicSum, tau: int) -> SymbolicSum:
    """Drop monomials of total degree above tau; polynomial payloads only."""
    out: dict[Chain, dict[TermKey, Fraction]] = {}
    for chain, terms in s.regions.items():
        bucket: dict[TermKey, Fraction] = {}
        for key, coeff in terms.items():
            powers, exps, e_const = key
            if exps or e_const:
                raise InputError("truncation needs a polynomial payload (no exponentials)")
            if sum(n for _, n in powers) <= tau:
                bucket[key] = coeff
        out[chain] = bucket
    return SymbolicSum._own(out)


def evaluate(s: SymbolicSum, assignment: Mapping[int, Fraction] | None = None
             ) -> tuple[float, float]:
    """Exact-rational accumulation grouped by total e-exponent, then
    extended-precision passes over the exponentials.

    Returns (value, error_radius).  The groups can cancel almost completely,
    as in a left tail, so a pass is repeated at twice the digits until both
    ends of total +- error term round to the same float, which is then the
    correctly rounded value (0.0 when the value underflows); past
    ``_EVAL_MAX_DPS`` digits the evaluation raises BudgetExceeded.  The
    radius is the one of the last pass.  Guard chains are evaluated
    strictly, so a query on a region boundary reports the open-region limit.
    """
    assignment = {v: Fraction(q) for v, q in (assignment or {}).items()}
    missing = s.free_vars() - set(assignment)
    if missing:
        raise InputError(f"assignment missing variables {sorted(missing)}")

    groups: dict[Fraction, Fraction] = {}
    for chain, terms in s.regions.items():
        vals = [Fraction(a[1]) if a[0] == "c" else assignment[a[1]] for a in chain]
        if any(not (vals[i] < vals[i + 1]) for i in range(len(vals) - 1)):
            continue
        for (powers, exps, e_const), coeff in terms.items():
            q = Fraction(e_const)
            c = coeff
            for v, n in powers:
                c *= assignment[v] ** n
            for v, n in exps:
                q += n * assignment[v]
            if c:
                old = groups.get(q)
                groups[q] = c if old is None else old + c

    dps = _EVAL_DPS
    while True:
        with mpmath.workdps(dps):
            total = mpmath.mpf(0)
            magnitude = mpmath.mpf(0)
            for q in sorted(groups):
                term = mpmath.mpf(groups[q].numerator) / groups[q].denominator * mpmath.e ** (
                    mpmath.mpf(q.numerator) / q.denominator)
                total += term
                magnitude += abs(term)
            slack = magnitude * mpmath.mpf(10) ** (8 - dps)
            if float(total - slack) == float(total + slack):
                return (float(total) or 0.0,
                        float(slack + mpmath.mpf(2) ** -52 * abs(total)))
        if dps >= _EVAL_MAX_DPS:
            raise BudgetExceeded(
                f"evaluation: the exact groups cancel beyond {_EVAL_MAX_DPS} digits")
        dps *= 2
