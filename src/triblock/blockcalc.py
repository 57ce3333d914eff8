"""Blocks of exceptional classes and the braid-group mutation calculus.

A block is a list of mutually orthogonal exceptional classes of equal rank
and degree; a block collection is an ordered tuple of blocks with all
backwards Euler pairings zero.  Mutations act on adjacent pairs of blocks
and come in three arithmetic flavours (division, recoil, extension)
depending on the sign of chi across the pair and on a rank inequality.
A mutation takes a validated collection and rewrites one block, and
certifies the result in one pass linear in the collection's length instead of
rechecking it pairwise (:func:`block_mutation` states the certificate and
its proof).  Pairings between the untouched blocks are the input's and
keep their order, so they need no recheck.  A failed certificate means the
arithmetic itself is broken: :func:`validate_collection` on the new blocks
names the fault, which is reported as :class:`InvariantViolationError`,
never as bad input.

Closed forms.  For blocks E before F of one valid collection,
semiorthogonality gives chi(f, e) = 0 for members e of E and f of F, so
chi(e, f) is the antisymmetric pairing chi(e, f) - chi(f, e), which
:func:`kclass.chi_minus` evaluates and which depends only on the ranks and
degrees; each block has one rank and degree, so the cross pairing
chi(E, F) is constant by construction and :func:`_cross` reads it off the
first members.  Serre duality, chi(E, G(K)) = chi(G, E) = 0, gives abc's b
as _cross(G, E) plus a K^2 term.  :func:`abc` and :func:`dual_basis` read
these closed forms, and :func:`block_mutation` reads its pair's pairing
off one member pair with a single :func:`chi`, which the constancy allows.
Riemann-Roch lives in ``kclass``, but for the certificate's (below).  The
brute-force :func:`chi_block` checks an arbitrary block pair and is their
oracle in the tests.  Their precondition is a valid collection, which every
BlockCollection is: validate_collection and the mutations check theirs, and
the direct constructions apply a twist (:func:`helix_shift` and ``catalog``)
or the reflection in a root (``weyl.apply_to_collection``, which checks
that its root is one), both of which preserve the Euler form.

Pairings are computed afresh from the classes, Riemann-Roch with each
block's one rank and degree hoisted out of the member loops.  Validation
reads each member once, into its block's rows (:func:`kclass.euler_rows`:
rank, degree, 2*ch2, c1 and the covector of c1); the rows decide the block
axioms and, through :func:`kclass.first_nonzero_chi`, the orthogonality
inside the block and every pairing with the other blocks, at one
``sum(map(mul, ...))`` a pair.  The certificate takes the covector of
the first new member once and pays the same one ``sum(map(mul, ...))`` a
pair, inline; its only :meth:`Surface.dot` calls are the new members'
exceptionality checks.  :func:`chi` reports a nonzero pairing either
finds.  Brute-force revalidation stays in the tests as the oracle of
both.

Twist classes are decided in one place, by the key of
:func:`twist_normal_form`; every other twist test compares such keys.

:class:`MutationType`, :class:`Block` and :class:`BlockCollection` are
``typing.NamedTuple`` records, for the reason ``picard``'s docstring gives:
cheap to import and construct.  An instance equals the plain tuple of its
fields and iterates over them; nothing in the library relies on either.
"""

from __future__ import annotations

from operator import add, mul, sub
from typing import Iterable, NamedTuple, Sequence

from .kclass import (
    InvariantViolationError,
    KClass,
    chi,
    chi_minus,
    degree,
    describe,
    euler_rows,
    first_nonzero_chi,
    render_int,
    row_is_exceptional,
    twist,
)
from .picard import DivisorClass, Surface, canonical_class

DIVISION = "division"
RECOIL = "recoil"
EXTENSION = "extension"

RANK = "rank"
DEGREE = "degree"


class BlockError(ValueError):
    """A block or collection offered by the caller fails validation."""


class MutationType(NamedTuple):
    kind: str
    trivial: bool = False

    def __str__(self) -> str:
        return f"{self.kind} (trivial)" if self.trivial else self.kind


# The four move records block_mutation returns, one shared instance each.
_DIVISION = MutationType(DIVISION)
_RECOIL = MutationType(RECOIL)
_EXTENSION = MutationType(EXTENSION)
_TRIVIAL = MutationType(RECOIL, trivial=True)


class Block(NamedTuple):
    """A validated block; construct through :func:`validate_block`."""

    members: tuple[KClass, ...]

    @property
    def surface(self) -> Surface:
        return self.members[0].c1.surface

    @property
    def rank(self) -> int:
        return self.members[0].rank

    @property
    def degree(self) -> int:
        return degree(self.members[0])

    @property
    def size(self) -> int:
        return len(self.members)

    def class_sum(self) -> KClass:
        total = self.members[0]
        for m in self.members[1:]:
            total = total + m
        return total

    def twisted(self, d: DivisorClass) -> "Block":
        return Block(tuple(twist(m, d) for m in self.members))


def validate_block(members: Sequence[KClass]) -> Block:
    """Check the block axioms and wrap the members.

    Requires: nonempty, one surface, every member exceptional with the
    sheaf parity 2*ch2 == c1.K (mod 2), equal ranks, equal degrees, and
    mutual orthogonality.
    """
    return _checked_block(members)[0]


def _checked_block(members: Sequence[KClass]) -> tuple[Block, list[tuple]]:
    # validate_block's checks in its order and with its messages, on the
    # members read once into kclass.euler_rows; returns the block and its
    # rows, which validate_collection pairs with the other blocks' rows.
    members = tuple(members)
    if not members:
        raise BlockError("a block must contain at least one class")
    surface = members[0].c1.surface
    if any(m.c1.surface != surface for m in members[1:]):
        raise BlockError("block members live on different surfaces")
    rows = euler_rows(members)
    for n, row in enumerate(rows, 1):
        if not row_is_exceptional(row):
            problem = "is not exceptional"
        elif (row[2] - row[1]) % 2:
            problem = "breaks the sheaf parity 2*ch2 == c1.K (mod 2)"
        else:
            continue
        raise BlockError(f"member {n} {describe(members[n - 1])} {problem}")
    if len({row[0] for row in rows}) > 1:
        raise BlockError("block members must share a common rank")
    if len({row[1] for row in rows}) > 1:
        raise BlockError("block members must share a common degree")
    # For exceptional a, b of equal rank r and degree, chi(a,b) - chi(b,a) =
    # r*(d_b - d_a) = 0 and 2*chi(a,b) = 2 + (c1_a - c1_b)^2 (rank 0 too), so
    # chi(a,b) = 0 makes chi(b,a) vanish and c1_a - c1_b a root: its square
    # is -2, and the equal degrees make it orthogonal to K.
    bad = first_nonzero_chi(rows, rows, upper=True)
    if bad is not None:
        i, j = bad
        raise BlockError(
            f"chi(member {i + 1}, member {j + 1}) = {render_int(chi(members[i], members[j]))}; "
            "block members must be mutually orthogonal"
        )
    return Block(members), rows


class BlockCollection(NamedTuple):
    """A validated ordered tuple of blocks; see :func:`validate_collection`."""

    blocks: tuple[Block, ...]

    @property
    def surface(self) -> Surface:
        return self.blocks[0].surface

    @property
    def type_vector(self) -> tuple[int, ...]:
        return tuple(b.size for b in self.blocks)

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(b.rank for b in self.blocks)

    @property
    def members(self) -> tuple[KClass, ...]:
        return tuple(m for b in self.blocks for m in b.members)


def validate_collection(blocks: Iterable) -> BlockCollection:
    """Validate blocks and the ordered semiorthogonality between them.

    Accepts Block instances or plain sequences of classes.  Every Euler
    pairing from a later block into an earlier one must vanish.  A failure
    names the offending block, or the offending pair of members (1-based).
    Each block is read once into its rows (:func:`kclass.euler_rows`),
    which decide its axioms and then every pairing with the other blocks.
    """
    checked = [
        _validate_block_at(b.members if isinstance(b, Block) else b, n)
        for n, b in enumerate(blocks, 1)
    ]
    if not checked:
        raise BlockError("a collection must contain at least one block")
    surface = checked[0][0].surface
    for n, (b, _) in enumerate(checked, 1):
        if b.surface != surface:
            raise BlockError(f"block {n} lives on a different surface")
    # chi(later, earlier) == 0 from block j into block i, i < j; a failure
    # names both members by their 1-based positions.
    for i, (earlier, cols) in enumerate(checked):
        for j in range(i + 1, len(checked)):
            later, rows = checked[j]
            bad = first_nonzero_chi(rows, cols)
            if bad is not None:
                a, b = bad
                value = chi(later.members[a], earlier.members[b])
                raise BlockError(
                    f"chi(block {j + 1} member {a + 1}, block {i + 1} member {b + 1}) "
                    f"= {render_int(value)}; the collection is not semiorthogonal"
                )
    return BlockCollection(tuple(b for b, _ in checked))


def _validate_block_at(members: Sequence[KClass], n: int) -> tuple[Block, list[tuple]]:
    # The checked block and its rows, naming the block by its 1-based
    # position n on failure.
    try:
        return _checked_block(members)
    except BlockError as exc:
        raise BlockError(f"block {n}: {exc}") from None


def _cross(e: Block, f: Block) -> int:
    """chi(E_i, F_j) for a block E before a block F of one valid collection.

    chi(F_j, E_i) = 0 makes it chi_minus(E_i, F_j), the same for every pair
    (module docstring); :func:`chi_block` is its oracle.
    """
    return chi_minus(e.members[0], f.members[0])


def chi_block(e: Block, f: Block) -> int:
    """The common Euler pairing chi(E_i, F_j) across an arbitrary block pair.

    Brute force over all |E|*|F| pairs, raising BlockError when the pairing
    is not constant.  For E before F in one valid collection the pairing
    is constant, and the mutation calculus reads it from the closed form
    (:func:`_cross`) or from one member pair instead; the tests keep this
    as their oracle.
    """
    values = {chi(a, b) for a in e.members for b in f.members}
    if len(values) > 1:
        raise BlockError(
            "Euler pairing is not constant across the block pair; "
            "not a two-block exceptional collection"
        )
    return values.pop()


def is_complete(c: BlockCollection) -> bool:
    """Whether the members are a basis of the numerical Grothendieck group.

    Precondition: c is valid, as every collection that validate_collection
    or a mutation returns is.  Its Gram matrix chi(m_i, m_j) is then
    unitriangular, and the Euler form is unimodular on the lattice of
    (rank, c1, 2*ch2) vectors obeying the sheaf parity (Kuleshov-Orlov), so
    k0_rank valid members have determinant +-1 in a basis of that lattice:
    the length alone decides, counted from the block sizes.  The tests keep
    the determinant as the oracle.
    """
    return sum(c.type_vector) == c.surface.k0_rank


def _mutate_members(
    moving: Block, through: Block, chi_val: int, side: str
) -> tuple[tuple[KClass, ...], MutationType]:
    # The three arithmetic flavours.  `moving` is the block being rewritten;
    # each new member is sign*(chi_val*sum(through) - m), built once from the
    # integer coordinates (rank, c1, 2*ch2) as sign*chi_val*sum(through) -+ m.
    if chi_val == 0:
        return moving.members, _TRIVIAL
    olds, parts = moving.members, through.members
    r, n, q = olds[0].rank, len(parts), parts[0].rank
    if side == "left":
        division = chi_val > 0 and n * chi_val * q > r
    else:
        division = chi_val > 0 and r <= n * chi_val * q
    scale, op = (chi_val, sub) if division else (-chi_val, add)
    s = olds[0].c1.surface
    t_rank = scale * n * q
    t_c1 = [scale * sum(col) for col in zip(*[m.c1.coords for m in parts])]
    t_ch = scale * sum([m.ch2x2 for m in parts])
    # A list first: tuple(map(...)) over-allocates, and every stored class
    # would keep the slack.  tuple.__new__ builds the records without
    # DivisorClass's coordinate-count check: the coordinates are maps over
    # s's own tuples, and the certificate checks the count.
    make = tuple.__new__
    new = tuple([
        make(KClass, (
            op(t_rank, m.rank),
            make(DivisorClass, (s, tuple([*map(op, t_c1, m.c1.coords)]))),
            op(t_ch, m.ch2x2),
        ))
        for m in olds
    ])
    return new, _DIVISION if division else _RECOIL if chi_val > 0 else _EXTENSION


def block_mutation(
    c: BlockCollection, i: int, side: str
) -> tuple[BlockCollection, MutationType]:
    """Mutate the adjacent pair (i, i+1) of blocks, 1-based.

    side="left" moves block i+1 leftwards through block i; side="right"
    moves block i rightwards through block i+1.  Returns the new collection
    and the arithmetic flavour of the move.

    Precondition: ``c`` is valid, as every BlockCollection is (module
    docstring).  The move is fixed by the cross pairing chi(E_i, F_j) of the
    pair, which is then constant, so one :func:`chi` on the first members
    reads it.

    Certificate, for the old members O_j, the new N_j and the m members of
    the other blocks, in one pass: one loop over the pairs (N_j, O_j) checks
    (a) and (c), then N_0's covector, taken once, pairs with each other
    member to check (b).
    (a) each N_j has its surface's coordinate count and passes the block
        axioms short of orthogonality;
    (b) chi(N_0, X) = 0 for each X before the new block and chi(X, N_0) = 0
        for each X after it, computed afresh;
    (c) N_j + s*O_j == N_0 + s*O_0 on (c1, 2*ch2) for each j, where s = +1
        for a division and -1 otherwise; the ranks agree by (a).
    Proof.  For exceptional a, b of one rank and degree, 2*chi(a, b) =
    2 + (c1_a - c1_b)^2.  By (c), N_a - N_b = -s*(O_a - O_b), so the new
    block is orthogonal as the old one is.  By bilinearity chi(N_j, X) =
    chi(N_0, X) - s*(chi(O_j, X) - chi(O_0, X)), and likewise with the
    arguments swapped.  The bracket vanishes, as ``c`` is valid: both terms
    are 0 for a block on the same side of O in both collections, and the
    cross pairing with the passed block is constant.  So (b) gives every
    pairing of N_j with the other blocks.  The argument reads neither the
    cross pairing nor the formula that produced the N_j.

    If the certificate fails, the new block is validated and its surface
    checked, then :func:`validate_collection` on the new blocks names the
    fault, or else the new block is reported as no translate of the old
    one; either way the error is an InvariantViolationError.  The untouched
    blocks keep their order and pairings, so the first fault found involves
    the new block.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not 1 <= i < len(c.blocks):
        raise BlockError(f"no adjacent block pair at position {i}")
    e, f = c.blocks[i - 1], c.blocks[i]
    chi_val = chi(e.members[0], f.members[0])
    old, through, at = (f, e, i - 1) if side == "left" else (e, f, i)
    members, mtype = _mutate_members(old, through, chi_val, side)
    pair = (Block(members), e) if side == "left" else (f, Block(members))
    blocks = c.blocks[: i - 1] + pair + c.blocks[i + 1 :]
    if not _certified(blocks, at, old, mtype.kind == DIVISION, c.surface):
        try:
            if _validate_block_at(members, at + 1)[0].surface != c.surface:
                raise BlockError(f"block {at + 1} lives on a different surface")
            validate_collection(blocks)
            raise BlockError(f"block {at + 1} is not a translate of the block it replaces")
        except BlockError as exc:
            raise InvariantViolationError(
                f"mutation {side}@{i} produced an invalid collection: {exc}"
            ) from exc
    return BlockCollection(blocks), mtype


def _certified(blocks: tuple, at: int, old: Block, division: bool, surface: Surface) -> bool:
    """block_mutation's certificate for the new block N = blocks[at].

    Clause (a)'s degree and sheaf-parity checks are implied by the others
    on a valid input; they stay, so that the certificate checks every block
    axiom itself.  By (c), c1(N_j) = C - s*c1(O_j) and 2*ch2(N_j) = n -
    s*2*ch2(O_j) for one (C, n), so the N_j share one degree as the O_j do,
    and each N_j breaks the parity exactly when (C, n) does, since the O_j
    keep it.  If N has odd rank, exceptionality implies the parity, as
    c1^2 == c1.K (mod 2).  Otherwise a member X of odd rank in another
    block, which every complete collection has, makes 2*chi(N_0, X) or
    2*chi(X, N_0) odd for a broken N_0, and (b) rejects it.
    """
    new, olds = blocks[at].members, old.members
    if len(new) != len(olds) or new[0].c1.surface != surface:
        return False
    degree_of, k = surface.degree, surface.picard_rank
    r, x0, n = new[0].rank, new[0].c1.coords, new[0].ch2x2
    d = degree_of(x0)
    op = add if division else sub
    shift = (op(n, olds[0].ch2x2), [*map(op, x0, olds[0].c1.coords)])
    for m, o in zip(new, olds):  # (a) and (c)
        x, ch = m.c1.coords, m.ch2x2
        if (
            m.rank != r or m.c1.surface != surface or len(x) != k
            or degree_of(x) != d or (ch - d) % 2
            or not m.is_exceptional
            or (op(ch, o.ch2x2), [*map(op, x, o.c1.coords)]) != shift
        ):
            return False
    # (b): Riemann-Roch with N_0 = (r, c1_0, n) of degree d and X's rank q
    # and degree e hoisted: 2*chi(N_0, X) for X before N and 2*chi(X, N_0)
    # after are 2rq + qn + r*ch_X -+ (qd - re) - 2*c1_0.c1_X.
    # c1_0.c1_X is the covector of c1_0 applied to c1_X, as in
    # kclass.first_nonzero_chi.
    cov = surface.covector(x0)
    for sign, others in ((1, blocks[:at]), (-1, blocks[at + 1 :])):
        for b in others:
            members = b.members
            q = members[0].rank
            base = 2 * r * q + q * n + sign * (r * degree_of(members[0].c1.coords) - q * d)
            for m in members:
                if base + r * m.ch2x2 != 2 * sum(map(mul, cov, m.c1.coords)):
                    return False
    return True


def apply_word(c: BlockCollection, word: Iterable[str]) -> BlockCollection:
    """Apply braid moves in the given order; tokens look like "L2" or "R1".

    The whole word is parsed before the first move, so a bad token anywhere
    raises ValueError without any mutation being computed.
    """
    for side, index in [parse_move(token) for token in word]:
        c, _ = block_mutation(c, index, side)
    return c


def parse_move(token: str) -> tuple[str, int]:
    t = token.strip().upper()
    if len(t) >= 2 and t[0] in ("L", "R") and t[1:].isascii() and t[1:].isdigit():
        return ("left" if t[0] == "L" else "right", int(t[1:]))
    raise ValueError(f"invalid mutation token {token!r}; expected like 'L2' or 'R1'")


def dual_basis(c: BlockCollection) -> tuple[KClass, ...]:
    """Right dual classes of a complete three-block collection, in order.

    chi(member_i, dual_j) is the Kronecker delta.  The first block is self
    dual, the middle block recoils off the first, the last block twists by K.
    The recoil uses the closed-form cross pairing (:func:`_cross`) of the
    first two blocks, so c must be valid (module docstring).
    """
    if len(c.blocks) != 3:
        raise BlockError("dual basis requires a three-block collection")
    if not is_complete(c):
        raise BlockError("dual basis requires a complete collection")
    e, f, g = c.blocks
    c_ef = _cross(e, f)
    e_total = e.class_sum()
    k = canonical_class(c.surface)
    duals = list(e.members)
    duals.extend(m - c_ef * e_total for m in f.members)
    duals.extend(twist(m, k) for m in g.members)
    return tuple(duals)


def pairing(s: str, t: str, c: BlockCollection) -> int:
    """Sum over members of s(member) * t(dual member), s and t rank or degree."""
    funcs = {RANK: lambda m: m.rank, DEGREE: degree}
    if s not in funcs or t not in funcs:
        raise ValueError(f"pairing functionals must be {RANK!r} or {DEGREE!r}")
    duals = dual_basis(c)
    return sum(funcs[s](m) * funcs[t](d) for m, d in zip(c.members, duals))


def abc(c: BlockCollection) -> tuple[int, int, int]:
    """The three constant cross pairings (a, b, c) of a complete three-block
    collection: a across the last pair, c across the first pair, and b from
    the K-twisted last block back into the first.

    For a valid collection (module docstring) they are closed forms: a =
    _cross(F, G) and c = _cross(E, F), and Serre duality gives chi(E, G(K))
    = chi(G, E) = 0, so b = chi(G(K), E) = chi_minus(G(K), E) =
    _cross(G, E) + r_E*r_G*K^2, as G(K) has rank r_G and degree
    d_G - r_G*K^2.

    Checks that all three are positive, the quadratic relations tying
    (a, b, c) to the type (alpha, beta, gamma), the ranks (x, y, z) and K^2,
    and the trace identity a^2/alpha + b^2/beta + c^2/gamma == abc.
    """
    if len(c.blocks) != 3:
        raise BlockError("abc requires a three-block collection")
    e, f, g = c.blocks
    ksq = c.surface.k_squared
    x, y, z = c.ranks
    a_val = _cross(f, g)
    c_val = _cross(e, f)
    b_val = _cross(g, e) + x * z * ksq
    shown = ",".join(map(render_int, (a_val, b_val, c_val)))
    if a_val <= 0 or b_val <= 0 or c_val <= 0:
        raise InvariantViolationError(
            f"cross pairings (a,b,c)=({shown}) are not all positive"
        )
    alpha, beta, gamma = c.type_vector
    ok = (
        a_val * a_val * beta * gamma == ksq * alpha * x * x
        and b_val * b_val * alpha * gamma == ksq * beta * y * y
        and c_val * c_val * alpha * beta == ksq * gamma * z * z
        and a_val * a_val * beta * gamma + b_val * b_val * alpha * gamma
        + c_val * c_val * alpha * beta == a_val * b_val * c_val * alpha * beta * gamma
    )
    if not ok:
        raise InvariantViolationError(
            f"cross pairings ({shown}) violate the quadratic relations"
        )
    return a_val, b_val, c_val


def helix_shift(c: BlockCollection, k: int) -> BlockCollection:
    """Shift a three-block collection k steps along its helix.

    One positive step sends (E, F, G) to (F, G, E(-K)); for complete
    collections this agrees with the two right mutations across the first
    and then the second pair, and that agreement is verified.
    """
    if len(c.blocks) != 3:
        raise BlockError("helix shift requires a three-block collection")
    mk = -canonical_class(c.surface)
    check = is_complete(c)
    for _ in range(abs(k)):
        e, f, g = c.blocks
        if k > 0:
            shifted = BlockCollection((f, g, e.twisted(mk)))
            braid_word = ("R1", "R2")
        else:
            shifted = BlockCollection((g.twisted(-mk), e, f))
            braid_word = ("L2", "L1")
        if check:
            braided = apply_word(c, braid_word)
            if braided.blocks != shifted.blocks:
                raise InvariantViolationError(
                    "helix shift disagrees with the braid mutations"
                )
        c = shifted
    return c


def block_rank_triple(c: BlockCollection) -> tuple[int, int, int]:
    """Block ranks read off in order of increasing block length (stable)."""
    if len(c.blocks) != 3:
        raise BlockError("rank triple requires a three-block collection")
    return tuple([b.rank for b in sorted(c.blocks, key=lambda b: b.size)])


def twist_normal_form(c: BlockCollection) -> tuple[tuple, DivisorClass]:
    """A hashable key of c's twist class, and the twist d that gives it.

    The pivot is the least c1 in the first block of nonzero rank r, d =
    -floor(c1(pivot)/r) coordinatewise, and the key is the surface and each
    block as the sorted tuple of (rank, c1, 2*ch2) of its members twisted
    by d (kclass.twist).  Two keys are equal exactly when the collections
    differ by the twist d1 - d2, members unordered inside blocks: a twist
    by e adds r*e to the c1 of every member of a block of rank r, so it
    keeps the order of c1 inside each block and moves the pivot's d to d -
    e, reaching the same key; equal keys are equal twisted collections.
    """
    pivot = next((b for b in c.blocks if b.rank), None)
    if pivot is None:
        raise BlockError("cannot determine a twist from torsion-only collections")
    r = pivot.rank
    d = DivisorClass(c.surface, tuple([-(x // r) for x in min(m.c1.coords for m in pivot.members)]))
    key = (c.surface,) + tuple(
        tuple(sorted([(m.rank, m.c1.coords, m.ch2x2) for m in b.twisted(d).members]))
        for b in c.blocks
    )
    return key, d
