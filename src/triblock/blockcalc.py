"""Blocks of exceptional classes and the braid-group mutation calculus.

A block is a list of mutually orthogonal exceptional classes of equal rank
and degree; a block collection is an ordered tuple of blocks with all
backwards Euler pairings zero.  Mutations act on adjacent pairs of blocks
and come in three arithmetic flavours (division, recoil, extension)
depending on the sign of chi across the pair and on a rank inequality.
Every mutation revalidates its output; a failure there means the arithmetic
itself is broken and is reported as :class:`InvariantViolationError`, never
as bad input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .kclass import InvariantViolationError, KClass, chi, degree, twist
from .picard import DivisorClass, Surface, canonical_class

DIVISION = "division"
RECOIL = "recoil"
EXTENSION = "extension"

RANK = "rank"
DEGREE = "degree"


class BlockError(ValueError):
    """A block or collection offered by the caller fails validation."""


@dataclass(frozen=True)
class MutationType:
    kind: str
    trivial: bool = False

    def __str__(self) -> str:
        return f"{self.kind} (trivial)" if self.trivial else self.kind


@dataclass(frozen=True)
class Block:
    """A validated block; construct through :func:`validate_block`."""

    members: tuple[KClass, ...]

    @property
    def surface(self) -> Surface:
        return self.members[0].surface

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
    members = tuple(members)
    if not members:
        raise BlockError("a block must contain at least one class")
    surface = members[0].surface
    if any(m.surface != surface for m in members[1:]):
        raise BlockError("block members live on different surfaces")
    degrees = [degree(m) for m in members]
    for n, (m, d) in enumerate(zip(members, degrees), 1):
        if not m.is_exceptional:
            problem = "is not exceptional"
        elif (m.ch2x2 - d) % 2:
            problem = "breaks the sheaf parity 2*ch2 == c1.K (mod 2)"
        else:
            continue
        raise BlockError(f"member {n} (rank {m.rank}, c1 {m.c1}, 2ch2 {m.ch2x2}) {problem}")
    if len({m.rank for m in members}) > 1:
        raise BlockError("block members must share a common rank")
    if len(set(degrees)) > 1:
        raise BlockError("block members must share a common degree")
    # For exceptional a, b of equal rank r and degree, chi(a,b) - chi(b,a) =
    # r*(d_b - d_a) = 0 and 2*chi(a,b) = 2 + (c1_a - c1_b)^2 (rank 0 too), so
    # chi(a,b) = 0 makes chi(b,a) vanish and c1_a - c1_b a root: its square
    # is -2, and the equal degrees make it orthogonal to K.
    for i, a in enumerate(members):
        for j in range(i + 1, len(members)):
            value = chi(a, members[j])
            if value:
                raise BlockError(
                    f"chi(member {i + 1}, member {j + 1}) = {value}; "
                    "block members must be mutually orthogonal"
                )
    return Block(members)


@dataclass(frozen=True)
class BlockCollection:
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

    def __len__(self) -> int:
        return len(self.blocks)


def validate_collection(blocks: Iterable) -> BlockCollection:
    """Validate blocks and the ordered semiorthogonality between them.

    Accepts Block instances or plain sequences of classes.  Every Euler
    pairing from a later block into an earlier one must vanish.  A failure
    names the offending block, or the offending pair of members (1-based).
    """
    wrapped = []
    for n, b in enumerate(blocks, 1):
        try:
            wrapped.append(validate_block(b.members if isinstance(b, Block) else b))
        except BlockError as exc:
            raise BlockError(f"block {n}: {exc}") from None
    if not wrapped:
        raise BlockError("a collection must contain at least one block")
    surface = wrapped[0].surface
    if any(b.surface != surface for b in wrapped):
        raise BlockError("blocks live on different surfaces")
    for i in range(len(wrapped)):
        for j in range(i + 1, len(wrapped)):
            for q, later in enumerate(wrapped[j].members, 1):
                for p, earlier in enumerate(wrapped[i].members, 1):
                    value = chi(later, earlier)
                    if value:
                        raise BlockError(
                            f"chi(block {j + 1} member {q}, block {i + 1} member {p}) "
                            f"= {value}; the collection is not semiorthogonal"
                        )
    return BlockCollection(tuple(wrapped))


def chi_block(e: Block, f: Block) -> int:
    """The common Euler pairing chi(E_i, F_j) across a block pair."""
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
    the length alone decides.  The tests keep the determinant as the oracle.
    """
    return len(c.members) == c.surface.k0_rank


def _mutate_members(
    moving: Block, through: Block, chi_val: int, side: str
) -> tuple[tuple[KClass, ...], MutationType]:
    # The three arithmetic flavours.  `moving` is the block being rewritten.
    if chi_val == 0:
        return moving.members, MutationType(RECOIL, trivial=True)
    total = through.class_sum()
    if side == "left":
        division = chi_val > 0 and through.size * chi_val * through.rank > moving.rank
    else:
        division = chi_val > 0 and moving.rank <= through.size * chi_val * through.rank
    if division:
        new = tuple(chi_val * total - m for m in moving.members)
        return new, MutationType(DIVISION)
    new = tuple(m - chi_val * total for m in moving.members)
    return new, MutationType(RECOIL if chi_val > 0 else EXTENSION)


def block_mutation(
    c: BlockCollection, i: int, side: str
) -> tuple[BlockCollection, MutationType]:
    """Mutate the adjacent pair (i, i+1) of blocks, 1-based.

    side="left" moves block i+1 leftwards through block i; side="right"
    moves block i rightwards through block i+1.  Returns the new collection
    and the arithmetic flavour of the move.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not 1 <= i < len(c.blocks):
        raise BlockError(f"no adjacent block pair at position {i}")
    e, f = c.blocks[i - 1], c.blocks[i]
    chi_val = chi_block(e, f)
    if side == "left":
        new_members, mtype = _mutate_members(f, e, chi_val, "left")
        new_pair = (Block(new_members), e)
    else:
        new_members, mtype = _mutate_members(e, f, chi_val, "right")
        new_pair = (f, Block(new_members))
    blocks = c.blocks[: i - 1] + new_pair + c.blocks[i + 1 :]
    try:
        return validate_collection(blocks), mtype
    except BlockError as exc:
        raise InvariantViolationError(
            f"mutation {side}@{i} produced an invalid collection: {exc}"
        ) from exc


def apply_word(c: BlockCollection, word: Iterable[str]) -> BlockCollection:
    """Apply braid moves in the given order; tokens look like "L2" or "R1"."""
    for token in word:
        side, index = parse_move(token)
        c, _ = block_mutation(c, index, side)
    return c


def parse_move(token: str) -> tuple[str, int]:
    t = token.strip().upper()
    if len(t) >= 2 and t[0] in ("L", "R") and t[1:].isdigit():
        return ("left" if t[0] == "L" else "right", int(t[1:]))
    raise ValueError(f"invalid mutation token {token!r}; expected like 'L2' or 'R1'")


def dual_basis(c: BlockCollection) -> tuple[KClass, ...]:
    """Right dual classes of a complete three-block collection, in order.

    chi(member_i, dual_j) is the Kronecker delta.  The first block is self
    dual, the middle block recoils off the first, the last block twists by K.
    """
    if len(c.blocks) != 3:
        raise BlockError("dual basis requires a three-block collection")
    if not is_complete(c):
        raise BlockError("dual basis requires a complete collection")
    e, f, g = c.blocks
    c_ef = chi_block(e, f)
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

    Checks the quadratic relations tying (a, b, c) to the type (alpha, beta,
    gamma), the ranks (x, y, z) and K^2, and the trace identity
    a^2/alpha + b^2/beta + c^2/gamma == abc.
    """
    if len(c.blocks) != 3:
        raise BlockError("abc requires a three-block collection")
    e, f, g = c.blocks
    a_val = chi_block(f, g)
    c_val = chi_block(e, f)
    b_val = chi_block(g.twisted(canonical_class(c.surface)), e)
    if a_val <= 0 or b_val <= 0 or c_val <= 0:
        raise InvariantViolationError(
            f"cross pairings (a,b,c)=({a_val},{b_val},{c_val}) are not all positive"
        )
    alpha, beta, gamma = c.type_vector
    x, y, z = c.ranks
    ksq = c.surface.k_squared
    ok = (
        a_val * a_val * beta * gamma == ksq * alpha * x * x
        and b_val * b_val * alpha * gamma == ksq * beta * y * y
        and c_val * c_val * alpha * beta == ksq * gamma * z * z
        and a_val * a_val * beta * gamma + b_val * b_val * alpha * gamma
        + c_val * c_val * alpha * beta == a_val * b_val * c_val * alpha * beta * gamma
    )
    if not ok:
        raise InvariantViolationError(
            f"cross pairings ({a_val},{b_val},{c_val}) violate the quadratic relations"
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
    order = sorted(range(3), key=lambda i: c.blocks[i].size)
    ranks = c.ranks
    return (ranks[order[0]], ranks[order[1]], ranks[order[2]])


def equivalent_up_to_twist(c1: BlockCollection, c2: BlockCollection):
    """The divisor d with c2 == c1 twisted by d, or None.

    Collections are compared blockwise with members sorted by c1, so member
    order inside blocks does not matter.
    """
    if c1.surface != c2.surface or c1.type_vector != c2.type_vector or c1.ranks != c2.ranks:
        return None
    pivot = next((i for i, b in enumerate(c1.blocks) if b.rank != 0), None)
    if pivot is None:
        raise BlockError("cannot determine a twist from torsion-only collections")
    key = lambda m: m.c1.coords
    first1 = min(c1.blocks[pivot].members, key=key)
    first2 = min(c2.blocks[pivot].members, key=key)
    r = first1.rank
    diff = first2.c1 - first1.c1
    if any(x % r for x in diff.coords):
        return None
    d = DivisorClass(c1.surface, tuple(x // r for x in diff.coords))
    for b1, b2 in zip(c1.blocks, c2.blocks):
        twisted = sorted((twist(m, d) for m in b1.members), key=key)
        if twisted != sorted(b2.members, key=key):
            return None
    return d
