"""The forward closure: an independent saturation oracle.

`forward_closure` saturates the sequent space over a fixed formula
universe by applying the rules forwards, so it must agree with the
backward engine on every query whose formulas come from that universe.
It keeps its sets of antecedents as bitsets over the universe's subsets
and joins a new sequent with a whole partner set in a few big-int
operations.  It applies neither of the engine's filters (classical
validity, atom connectivity) and saturates only the admitted space, the
sequents a capped query can reach; it imports only `syntax` and `kernel`,
so it shares no code with the backward search.
"""

from __future__ import annotations

from typing import Iterable

from .kernel import MODES, ResourceLimitError
from .syntax import (
    And,
    Formula,
    Imp,
    Neg,
    Or,
    Sequent,
    formula_key,
    print_formula,
    subformulas,
)

# forward_closure keeps bitsets 2**formulas bits wide; past this many
# universe formulas it refuses the universe.
CLOSURE_FORMULA_CEILING = 20


def forward_closure(
    universe: Iterable[Formula],
    weight_cap: int,
    mode: str = MODES[0],
    max_size: int = 1_000_000,
) -> frozenset[Sequent]:
    """Saturate the derivable sequents over a fixed formula universe.

    The sequent space is: antecedent a subset of the universe, succedent a
    universe member or the absurdity marker.  Saturation runs the rules
    forwards to a fixpoint over the admitted space: the sequents whose
    formulas all lie in the subformula closure of the formulas of some
    sequent within the weight cap (goal-directed restriction, as magic sets
    do for deductive databases; F. Bancilhon, D. Maier, Y. Sagiv and
    J. Ullman, "Magic sets and other strange ways to implement logic
    programs", PODS 1986).  The returned set is then filtered to sequents
    within the weight cap, skipping heavier antecedents before any
    `Sequent` is built.

    The restriction is sound and complete.  In each of the eleven rules
    every premise formula is a subformula of a conclusion formula (the
    fact that keeps a subformula-closed universe closed under premises),
    so every sequent in a derivation of T lies over the subformula closure
    of T's formulas, and the admitted space is closed under taking
    premises.  A saturation that drops only conclusions outside the space
    therefore derives exactly the derivable sequents inside it, and every
    sequent within the cap is inside it.  The sequent's weight cannot stand
    in for the space, since premises may be heavier than the cap: in
    tennant mode every derivation of `q -> ~r, q, r |- ~q` (weight 8)
    passes through `q -> ~r, ~r, r |- ~q` (weight 9).  An uncapped call
    admits the whole space.

    With N universe formulas an antecedent is an N-bit mask, and a set of
    antecedents is a bitset over the 2**N masks: bit m is set when mask m
    is in the set.  The admitted space is one down-closed such set over
    formula sets: the sets covered by some formula set of weight at most w
    are built for w = 0, 1, ... up to the cap, and a cover holding formula
    f covers X within w exactly when the rest of it covers X less the
    subformulas of f within w - weight(f).  Each succedent s (a universe
    index, or N for the absurdity marker) admits the antecedents m with
    m plus s in that set, and keeps two more sets, `derived` (every
    sequent emitted) and `joined` (every sequent already processed).
    Processing a sequent applies the one-premise rules to it alone and
    joins it, in both premise roles, with whole partner sets: adding
    formula i to every mask of a set moves the masks lacking i up by 2**i
    places, optionally dropping i moves the masks holding it down, and the
    masks holding i are the set ANDed with a fixed position mask.  Only the
    admitted masks of a result missing from the target's `derived` set are
    new; they count towards `max_size` and wait to be processed.
    Saturation ends when every derived sequent has been joined (semi-naive
    evaluation, one sequent against a whole set at a time; F. Bancilhon
    and R. Ramakrishnan, "An amateur's introduction to recursive query
    processing strategies", SIGMOD 1986).

    Cost: 3(N+1) bitsets of 2**N bits plus N position masks.  Building
    the admitted space keeps one bitset per weight up to the cap (or up to
    the first weight that covers everything), and each costs three big-int
    operations per subformula of each universe formula: there is no loop
    over the masks.  Per join with a partner set, four big-int operations
    per bit of the new mask and up to seven more; the weight filter sums
    the formula weights of each derived antecedent.  Above
    CLOSURE_FORMULA_CEILING formulas the universe is refused with
    ResourceLimitError before any bitset is built.  `max_size` bounds the
    number of sequents derived in the admitted space, before the weight
    filter: the call raises ResourceLimitError exactly when that number is
    larger.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    univ = sorted(set(universe), key=formula_key)
    missing = subformulas(*univ) - set(univ)
    if missing:
        raise ValueError(
            "universe is not subformula-closed; missing: "
            + ", ".join(print_formula(m) for m in sorted(missing, key=formula_key))
        )
    n = len(univ)
    if n > CLOSURE_FORMULA_CEILING:
        raise ResourceLimitError(
            f"closure universe has {n} formulas, over the ceiling of {CLOSURE_FORMULA_CEILING}"
        )
    index = {f: i for i, f in enumerate(univ)}
    bit = [1 << i for i in range(n)]
    tennant = mode == "tennant"

    ABS = n  # the absurdity marker's succedent slot
    # per-connective tables over universe indexes
    neg_of = {}          # i -> index of ~univ[i]
    conjs_by_left: dict[int, list[tuple[int, int, int]]] = {}
    conjs_by_right: dict[int, list[tuple[int, int, int]]] = {}
    conjs: list[tuple[int, int, int]] = []      # (conj, left, right)
    disjs: list[tuple[int, int, int]] = []
    imps: list[tuple[int, int, int]] = []
    imps_by_left: dict[int, list[tuple[int, int, int]]] = {}
    imps_by_right: dict[int, list[tuple[int, int, int]]] = {}
    for f in univ:
        i = index[f]
        if isinstance(f, Neg):
            neg_of[index[f.sub]] = i
        elif isinstance(f, And):
            entry = (i, index[f.left], index[f.right])
            conjs.append(entry)
            conjs_by_left.setdefault(entry[1], []).append(entry)
            conjs_by_right.setdefault(entry[2], []).append(entry)
        elif isinstance(f, Or):
            disjs.append((i, index[f.left], index[f.right]))
        elif isinstance(f, Imp):
            entry = (i, index[f.left], index[f.right])
            imps.append(entry)
            imps_by_left.setdefault(entry[1], []).append(entry)
            imps_by_right.setdefault(entry[2], []).append(entry)

    # has[i]: the set of masks holding formula i (bit i set), as a bitset
    has = []
    for i in range(n):
        pattern, period = ((1 << bit[i]) - 1) << bit[i], bit[i] << 1
        while period < 1 << n:
            pattern |= pattern << period
            period <<= 1
        has.append(pattern)

    def add(masks: int, m: int) -> int:
        # {q | m : q in masks}
        while m:
            low = m & -m
            held = masks & has[low.bit_length() - 1]
            masks = (masks ^ held) << low | held
            m ^= low
        return masks

    def or_without(masks: int, i: int) -> int:
        # masks, plus each mask holding i with i dropped
        return masks | (masks & has[i]) >> bit[i]

    def or_with(masks: int, i: int) -> int:
        # masks, plus each mask with i added
        return masks | (masks & ~has[i]) << bit[i]

    def members(masks: int) -> list[int]:
        # the masks in a bitset
        digits = bin(masks)
        top = len(digits) - 1
        out = []
        at = digits.find("1", 2)
        while at >= 0:
            out.append(top - at)
            at = digits.find("1", at + 1)
        return out

    # covered[w]: the formula sets inside the subformula closure of some
    # formula set of weight at most w; the admitted space is covered[cap]
    subs = [[index[g] for g in subformulas(f)] for f in univ]
    everything = (1 << (1 << n)) - 1
    covered = [1]  # weight 0 covers the empty set alone
    while covered[-1] != everything and len(covered) <= weight_cap:
        w = len(covered)
        layer = covered[-1]
        for f, sub in zip(univ, subs):
            if f.weight <= w:
                masks = covered[w - f.weight]
                for i in sub:
                    masks = or_with(masks, i)
                layer |= masks
        covered.append(layer)
    down = covered[-1]
    # allowed[s]: the antecedents m with m, s admitted
    allowed = [or_without(down & has[s], s) for s in range(n)] + [down]

    derived = [0] * (n + 1)   # succedent -> antecedent masks emitted
    joined = [0] * (n + 1)    # succedent -> antecedent masks processed
    size = 0

    def grow(succ: int, masks: int) -> None:
        nonlocal size
        new = masks & allowed[succ] & ~derived[succ]
        if new:
            size += new.bit_count()
            if size > max_size:
                raise ResourceLimitError(f"closure exceeded the cap of {max_size} sequents")
            derived[succ] |= new

    def emit(mask: int, succ: int) -> None:
        grow(succ, 1 << mask)

    for i in range(n):
        emit(bit[i], i)  # Ax

    def unary(mask: int, succ: int) -> None:
        if succ != ABS:
            m = neg_of.get(succ)
            if m is not None:
                emit(mask | bit[m], ABS)  # LNeg
            for (d, a, b) in disjs:
                if a == succ or b == succ:
                    emit(mask, d)  # ROr
            for (c, a, b) in imps_by_right.get(succ, ()):
                emit(mask & ~bit[a], c)  # RImpB
        else:
            rest = mask
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                rest ^= low
                m = neg_of.get(i)
                if m is not None:
                    emit(mask & ~low, m)  # RNeg
            for (c, a, b) in imps:
                if mask >> a & 1:  # RImpA
                    emit(mask & ~bit[a], c)
                    emit(mask, c)
        if succ != ABS or tennant:
            for (c, a, b) in conjs:  # LAnd
                if mask >> a & 1 or mask >> b & 1:
                    emit((mask & ~bit[a] & ~bit[b]) | bit[c], succ)

    def combine(mask: int, succ: int) -> None:
        # join the newly processed sequent, in both premise roles, with every
        # processed sequent (itself included) a whole partner set at a time,
        # so each ordered pair of processed sequents is joined exactly once
        if succ != ABS:
            for (c, a, b) in conjs_by_left.get(succ, ()):  # RAnd
                grow(c, add(joined[b], mask))
            for (c, a, b) in conjs_by_right.get(succ, ()):
                grow(c, add(joined[a], mask))
        for (d, a, b) in disjs:  # LOr
            # the new sequent holds disjunct x, its partners the other one, y;
            # a formula succedent must match, and the marker takes the other's
            for (x, y) in ((a, b), (b, a)):
                if mask >> x & 1:
                    rest = mask & ~bit[x] | bit[d]
                    if succ != ABS:
                        partners = [(succ, joined[succ] | joined[ABS])]
                    else:
                        partners = enumerate(joined)
                    for (s, qs) in partners:
                        qs &= has[y]
                        if qs:
                            grow(s, or_with(add(or_without(qs, y), rest), x))
        if succ != ABS:
            for (c, a, b) in imps_by_left.get(succ, ()):  # LImp, new as minor
                for s in range(n + 1 if tennant else n):
                    qs = joined[s] & has[b]
                    if qs:
                        grow(s, add(or_without(qs, b), mask | bit[c]))
        if succ != ABS or tennant:
            for (c, a, b) in imps:  # LImp, new as major
                if mask >> b & 1 and joined[a]:
                    grow(succ, or_with(add(joined[a], mask & ~bit[b] | bit[c]), b))

    # process every derived sequent not yet joined, until none is left
    pending = True
    while pending:
        pending = False
        for succ in range(n + 1):
            for mask in members(derived[succ] & ~joined[succ]):
                pending = True
                joined[succ] |= 1 << mask
                unary(mask, succ)
                combine(mask, succ)

    out = []
    for succ in range(n + 1):
        formula = None if succ == ABS else univ[succ]
        budget = weight_cap - (0 if formula is None else formula.weight)
        for mask in members(derived[succ]):
            ant = [f for f, b in zip(univ, bit) if mask & b]
            if sum([f.weight for f in ant]) <= budget:
                out.append(Sequent(ant, formula))
    return frozenset(out)
