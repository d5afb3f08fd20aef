"""Seeded checks for the generalized-inverse identity catalogue.

Each check builds its own operands from a seed and returns the maximum
relative residual over the identities it verifies, so callers can assert a
single tolerance per check.  Constructions follow the hypotheses each
statement needs (orthogonal-range block embeddings, projected update
factors, near-identity invertible transforms, partial isometries).
"""

import numpy as np

from einverse import (
    Tensor,
    block2x2,
    chain,
    conj_transpose as ct,
    frobenius_distance,
    frobenius_norm,
    one_four_family,
    one_inverse_family,
    one_three_family,
    penrose_check,
    pinv,
    row_block,
    svd,
    unit_tensor,
    zeros,
)
from conftest import rank_deficient, rt


def rres(got, want):
    return frobenius_distance(got, want) / (1.0 + frobenius_norm(want))


def herm_res(t):
    return frobenius_distance(ct(t), t) / (1.0 + frobenius_norm(t))


def idem_res(t):
    return frobenius_distance(chain(t, t), t) / (1.0 + frobenius_norm(t))


def eq1_res(a, x):
    return rres(chain(a, x, a), a)


def sample_g1(a, seed):
    g = pinv(a)
    return one_inverse_family(a, g, rt(g.row_extents, g.col_extents, seed))


def check_star_product_inverse(seed):
    a = rt([2, 3], [3, 2], seed)
    gram = chain(ct(a), a)
    r1 = rres(pinv(gram), chain(pinv(a), pinv(ct(a))))
    r2 = rres(chain(pinv(gram), ct(a)), pinv(a))
    return max(r1, r2)


def check_mp_lemma_parts(seed):
    a = rt([2, 3], [3, 2], seed)
    ap = pinv(a)
    astar = ct(a)
    outer = chain(a, astar)
    res = [
        rres(chain(astar, pinv(outer)), ap),
        rres(chain(astar, a, ap), astar),
        rres(chain(ap, a, astar), astar),
        rres(chain(a, astar, pinv(astar)), a),
        rres(chain(pinv(astar), astar, a), a),
        rres(chain(ap, a), chain(astar, pinv(astar))),
        rres(chain(a, ap), chain(pinv(astar), astar)),
    ]
    triple = svd(rt([2, 3], [3, 2], seed + 5000))
    u, v = triple.u, triple.v
    res.append(rres(pinv(chain(u, a, v)), chain(ct(v), ap, ct(u))))
    return max(res)


def _partial_isometry(row, col, seed):
    triple = svd(rt(row, col, seed))
    core = triple.core.as_matrix().copy()
    d = np.diag(core).copy().real
    d[: max(1, d.size // 2)] = 1.0
    d[max(1, d.size // 2) :] = 0.0
    np.fill_diagonal(core, d)
    quasi = Tensor(core.reshape(triple.core.extents), triple.core.split)
    return chain(triple.u, quasi, ct(triple.v))


def check_idempotency_lemma(seed):
    q = rt([2, 2], [3], seed)
    p = chain(q, pinv(q))  # hermitian idempotent projector
    res = [rres(pinv(p), p)]

    w = _partial_isometry([2, 2], [2, 2], seed + 6000)
    res.append(idem_res(chain(ct(w), w)))
    res.append(rres(pinv(w), ct(w)))

    # contrapositive: a generic tensor is far from both sides at once
    a = rt([2, 2], [2, 2], seed + 7000)
    mp_is_star = frobenius_distance(pinv(a), ct(a)) <= 1e-6
    gram_idem = idem_res(chain(ct(a), a)) <= 1e-6
    res.append(0.0 if mp_is_star == gram_idem else 1.0)

    ap = pinv(a)
    i_row = unit_tensor(a.row_extents)
    i_col = unit_tensor(a.col_extents)
    res.extend(
        [
            idem_res(chain(a, ap)),
            idem_res(chain(ap, a)),
            idem_res(i_row - chain(a, ap)),
            idem_res(i_col - chain(ap, a)),
        ]
    )
    return max(res)


def check_one_equivalences(seed):
    a = rt([3, 2], [2, 2], seed)
    gram = chain(ct(a), a)
    g1 = sample_g1(gram, seed + 8000)
    r1 = rres(chain(a, g1, ct(a), a), a)
    r2 = herm_res(chain(a, g1, ct(a)))
    return max(r1, r2)


def _orthogonal_pair(seed):
    a0 = rt([2], [2], seed)
    b0 = rt([2], [2], seed + 9000)
    o = zeros((2, 2), 1)
    return block2x2(a0, o, o, o), block2x2(o, o, o, b0)


def check_sum_condition(seed):
    a, b = _orthogonal_pair(seed)
    hyp = max(
        frobenius_norm(chain(pinv(a), b)), frobenius_norm(chain(pinv(b), a))
    )
    res = rres(chain(b, pinv(a + b), b), b)
    return max(hyp, res)


def check_consistency_factorization(seed):
    a = rank_deficient([2, 2], [2, 2], seed, rank=2)
    g = sample_g1(a, seed + 10000)
    planted = chain(a, rt([2, 2], [3], seed + 11000))
    r_fwd = rres(chain(a, g, planted), planted)
    # a generic right-hand side is outside the range, and both statements
    # of the equivalence must then fail together
    loose = rt([2, 2], [3], seed + 12000)
    lhs_holds = rres(chain(a, g, loose), loose) <= 1e-6
    rhs_holds = rres(chain(a, chain(g, loose)), loose) <= 1e-6
    return max(r_fwd, 0.0 if lhs_holds == rhs_holds else 1.0)


def check_range_corollary(seed):
    a = rt([2, 3], [2, 2], seed)
    gram = chain(ct(a), a)
    g1 = sample_g1(gram, seed + 13000)
    r1 = rres(chain(a, g1, gram), a)
    r2 = rres(chain(gram, g1, ct(a)), ct(a))
    return max(r1, r2)


def check_transformation(seed):
    a = rank_deficient([2, 2], [2, 2], seed, rank=3)
    s = unit_tensor([2, 2]) + 0.1 * rt([2, 2], [2, 2], seed + 14000)
    t = unit_tensor([2, 2]) + 0.1 * rt([2, 2], [2, 2], seed + 15000)
    g = sample_g1(a, seed + 16000)
    b = chain(s, a, t)
    candidate = chain(pinv(t), g, pinv(s))
    return eq1_res(b, candidate)


def check_one_reverse_necessity(seed):
    a = rt([2, 2], [2, 2], seed)
    residuals = []
    for b in (ct(a), pinv(a)):
        ga, gb = pinv(a), pinv(b)
        premise = eq1_res(chain(a, b), chain(gb, ga))
        conclusion = idem_res(chain(ga, a, b, gb))
        residuals.extend([premise, conclusion])
    return max(residuals)


def check_block_and_update(seed):
    a = rt([2, 2], [2, 2], seed)
    b = rt([2, 2], [2, 2], seed + 17000)
    rb = row_block(a, b)
    res = [rres(chain(rb, pinv(rb), a), a)]

    ae, be = _orthogonal_pair(seed + 18000)
    gsum = chain(ae, ct(ae)) + chain(be, ct(be))
    res.append(rres(chain(gsum, pinv(gsum), ae), ae))

    base = rank_deficient([2, 2], [3, 1], seed + 19000, rank=2)
    g = pinv(base)
    u = chain(base, g, rt([2, 2], [2, 2], seed + 20000))
    v = chain(rt([2, 2], [3, 1], seed + 21000), g, base)
    updated = base + chain(u, v)
    mid = pinv(unit_tensor([2, 2]) + chain(v, g, u))
    candidate = g - chain(g, u, mid, v, g)
    res.append(eq1_res(updated, candidate))
    return max(res)


def check_one_four_equivalences(seed):
    a = rank_deficient([2, 3], [2, 2], seed, rank=2)
    g14 = one_four_family(a, pinv(a), rt([2, 2], [2, 3], seed + 22000))
    outer = chain(a, ct(a))
    w = sample_g1(outer, seed + 23000)
    r1 = rres(chain(g14, a, ct(a)), ct(a))
    r2 = rres(chain(g14, a), chain(ct(a), w, a))

    g13 = one_three_family(a, pinv(a), rt([2, 2], [2, 3], seed + 24000))
    gram = chain(ct(a), a)
    w2 = sample_g1(gram, seed + 25000)
    r3 = rres(chain(ct(a), a, g13), ct(a))
    r4 = rres(chain(a, g13), chain(a, w2, ct(a)))
    return max(r1, r2, r3, r4)


def check_rol_sufficiency(seed):
    a = rank_deficient([2, 2], [3], seed, rank=2)
    b = ct(a)
    ga = pinv(a)
    gb14 = one_four_family(b, pinv(b), rt([2, 2], [3], seed + 26000))
    condition = herm_res(chain(ga, a, b, ct(b)))
    cand = chain(gb14, ga)
    ab = chain(a, b)
    report = penrose_check(ab, cand, tol=1e-9)
    res14 = [condition, report.residuals[0], report.residuals[3]]

    gb13 = one_three_family(b, pinv(b), rt([2, 2], [3], seed + 27000))
    condition13 = herm_res(chain(a, ga, ct(b), b))
    cand13 = chain(gb13, ga)
    report13 = penrose_check(ab, cand13, tol=1e-9)
    res13 = [condition13, report13.residuals[0], report13.residuals[2]]
    return max(res14 + res13)


ALL_CHECKS = {
    "star_product_inverse": check_star_product_inverse,
    "mp_lemma_parts": check_mp_lemma_parts,
    "idempotency_lemma": check_idempotency_lemma,
    "one_inverse_equivalences": check_one_equivalences,
    "orthogonal_sum_condition": check_sum_condition,
    "consistency_factorization": check_consistency_factorization,
    "range_corollary": check_range_corollary,
    "invertible_transformation": check_transformation,
    "one_reverse_order_necessity": check_one_reverse_necessity,
    "block_and_update_formulas": check_block_and_update,
    "lambda_class_equivalences": check_one_four_equivalences,
    "reverse_order_sufficiency": check_rol_sufficiency,
}
