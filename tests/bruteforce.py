"""Slow reference computations for cross-checking the package.

Everything here runs on plain Python lists of complex numbers, with no
numpy and no imports from the package, so agreement between the two is
evidence rather than tautology. Quadratic loops only; meant for the
exhaustive small corpus (d <= 3, n <= 5).
"""


def inner(f, g):
    # linear in the first argument, conjugate-linear in the second
    return sum(a * b.conjugate() for a, b in zip(f, g))


def norm_sq(f):
    return sum(abs(a) ** 2 for a in f)


def coefficient_list(vectors, f):
    return [inner(f, v) for v in vectors]


def partial_sum(vectors, indices, f):
    out = [0j] * len(f)
    for i in indices:
        c = inner(f, vectors[i])
        for k in range(len(f)):
            out[k] += c * vectors[i][k]
    return out


def subset_energy(vectors, indices, f):
    return sum(abs(inner(f, vectors[i])) ** 2 for i in indices)


def pfi_sides(vectors, indices, f):
    """Both sides of the Parseval energy split for subset `indices`."""
    comp = [i for i in range(len(vectors)) if i not in set(indices)]
    lhs = subset_energy(vectors, indices, f) - norm_sq(partial_sum(vectors, indices, f))
    rhs = subset_energy(vectors, comp, f) - norm_sq(partial_sum(vectors, comp, f))
    return lhs, rhs


def complement(n, indices):
    members = set(indices)
    return [i for i in range(n) if i not in members]


def tight_sides(vectors, indices, f, lam):
    """Both sides of the lam-tight energy split and the terms behind them."""
    comp = complement(len(vectors), indices)
    terms = {
        "lam_sum_j": lam * subset_energy(vectors, indices, f),
        "norm_sj_f": norm_sq(partial_sum(vectors, indices, f)),
        "lam_sum_jc": lam * subset_energy(vectors, comp, f),
        "norm_sjc_f": norm_sq(partial_sum(vectors, comp, f)),
    }
    lhs = terms["lam_sum_j"] - terms["norm_sj_f"]
    rhs = terms["lam_sum_jc"] - terms["norm_sjc_f"]
    return lhs, rhs, terms


def overlap_sides(vectors, j, e, f):
    """Both sides of the Parseval split when J grows by E (disjoint from J)."""
    n = len(vectors)
    j_union_e = sorted(set(j) | set(e))
    terms = {
        "norm_s_j_union_e_f": norm_sq(partial_sum(vectors, j_union_e, f)),
        "norm_s_jc_minus_e_f": norm_sq(partial_sum(vectors, complement(n, j_union_e), f)),
        "norm_sj_f": norm_sq(partial_sum(vectors, j, f)),
        "norm_sjc_f": norm_sq(partial_sum(vectors, complement(n, j), f)),
        "twice_energy_e": 2.0 * subset_energy(vectors, e, f),
    }
    lhs = terms["norm_s_j_union_e_f"] - terms["norm_s_jc_minus_e_f"]
    rhs = terms["norm_sj_f"] - terms["norm_sjc_f"] + terms["twice_energy_e"]
    return lhs, rhs, terms


def frame_operator(vectors):
    """S as a list of rows: S[a][b] = sum_i f_i[a] conj(f_i[b])."""
    d = len(vectors[0])
    return [[sum(v[a] * v[b].conjugate() for v in vectors) for b in range(d)]
            for a in range(d)]


def inverse(m):
    """Gauss-Jordan inverse with partial pivoting, for small nonsingular m."""
    d = len(m)
    rows = [list(row) + [1.0 if k == i else 0.0 for k in range(d)] for i, row in enumerate(m)]
    for col in range(d):
        pivot = max(range(col, d), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(d):
            if r != col:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[d:] for row in rows]


def mat_vec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def general_sides(vectors, indices, f):
    """Both sides of the general-frame energy split, via the canonical dual
    S^{-1} f_i, and the terms behind them."""
    s_inv = inverse(frame_operator(vectors))
    dual = [mat_vec(s_inv, v) for v in vectors]

    def dual_energy(g):
        return sum(abs(inner(g, u)) ** 2 for u in dual)

    comp = complement(len(vectors), indices)
    terms = {
        "sum_j": subset_energy(vectors, indices, f),
        "dual_energy_sj_f": dual_energy(partial_sum(vectors, indices, f)),
        "sum_jc": subset_energy(vectors, comp, f),
        "dual_energy_sjc_f": dual_energy(partial_sum(vectors, comp, f)),
    }
    lhs = terms["sum_j"] - terms["dual_energy_sj_f"]
    rhs = terms["sum_jc"] - terms["dual_energy_sjc_f"]
    return lhs, rhs, terms
