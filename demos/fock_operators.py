"""Operators on the truncated Fock levels: creation, shift, defect, series.

Run with ``python3 demos/fock_operators.py``.
"""

import numpy as np

from fockstate import (
    FockContext,
    FockOperator,
    basis_vector,
    apply_operator,
    left_create,
    parse_expression,
    represent,
    shift,
    shift_defect,
    shift_series,
    vector_norm,
)


def main():
    # Two letters, words up to length 6.  Level k holds the n**k words of
    # length k; the whole space is the direct sum of levels 0..6.
    ctx = FockContext(2, 6)
    print("level dims    =", ctx.level_dims)
    print("total dim     =", ctx.total_dim)

    # left_create(ctx, i) prepends letter i; its adjoint strips it again.
    # Words at the top level have nowhere to go and are annihilated, so l1
    # is exact only below K minus its raise bound of one: its horizon.
    l1 = left_create(ctx, 1)
    word = basis_vector(ctx, (2, 1))
    lifted = apply_operator(l1, word)
    print("l1 |21>       =", "|121>, norm", vector_norm(lifted))
    print("l1 horizon    =", l1.horizon)

    # represent() turns an algebra element into a concrete block operator.
    # Multiplicativity holds exactly inside the common horizon.
    x = parse_expression("v1 v2* + 0.5 v2", 2)
    y = parse_expression("v2 v1*", 2)
    lhs = represent(ctx, x) @ represent(ctx, y)
    rhs = represent(ctx, x * y)
    print("product gap   =", lhs.diff(rhs, col_limit=min(lhs.horizon,
                                                         rhs.horizon)))

    # shift() conjugates by the right-letter appenders: block (i, j) moves
    # to (i+1, j+1) tensored with the identity on the appended letter.  The
    # defect map is the complementary piece, and summing the iterated
    # shifts inverts it.
    rng = np.random.default_rng(7)
    blocks = {(i, j): rng.standard_normal((ctx.dim(i), ctx.dim(j)))
              for i in range(3) for j in range(3)}
    band = FockOperator.from_blocks(ctx, blocks)
    print("defect gap    =", shift_defect(shift_series(band)).diff(band))
    print("series gap    =", shift_series(shift_defect(band)).diff(band))

    # The series applied to the vacuum projection rebuilds the identity:
    # every word is some shift of the empty word.
    series = shift_series(FockOperator.level_projection(ctx, 0))
    print("identity gap  =", series.diff(FockOperator.identity(ctx)))

    # A shifted operator never sees the vacuum level, so pairing it against
    # the vacuum projection gives zero.
    shifted = shift(band)
    print("vacuum block  =", float(np.abs(shifted.block(0, 0)).max()))


if __name__ == "__main__":
    main()
