"""Python loops kept as reference implementations.

A fixing subgroup's members, every arrangement of each block's
positions, and its coset decomposition from compose(x, h) member by
member, are the oracle of the library's coset-id array, the
representatives and rank counts read off it, and the order and orbit
count read off the blocks (tests/test_array_kernels.py).

The library builds rule tables, centered tables, JSON documents and
the exact moment kernels with numpy array kernels; these are the
loops they replaced, written one profile (or one contraction) at a
time from the definitions.  The FKN moment diagnostics, exact and
certified from the kernel projection in the library, are here as the
whole-array float computation over all m!^n profiles at once, with the
degree-2 residual that holds r to its degree-2 span.
tests/test_array_kernels.py checks that the library's bounds hold on
these floats.
The coset-histogram L' and L'' forms, over the dense X^j of
build_one_voter and switch-class coset counts gathered one profile at
a time, are the oracle tests/test_laplacian.py holds the j-profile
reduction to.  The kernel projection from per-voter vote-by-coset
counts, through the permutation matrices of every vote, is the oracle
tests/test_rounding.py holds the pair-count projection to, and the
explicit centering mPi X mPi that the library's zero-margin readout of
the projection and of E ||r||^2 is held to.  The L form
as float sums over every switch class of the matrix encoding is the
oracle of the exact identity IR = L (irlap.laplacian docstring).
The Fraction-chain forms of the kernel projection, the FKN moment
diagnostics, the robustness report and the L, L', L'' values, one
Fraction operation per step, are the oracles that the library's
integer numerators over fixed denominators are held to, field by
field (tests/test_rounding.py).
The appendix algebra's oracles are here too: a fraction-free
Gauss-Jordan elimination that tests/test_moments.py holds the closed
form of C15's determinant and inverse to, E f^k summed over all of
S_m, and the sampled hypercontractivity sweep over random zero-margin
matrices, whose ratios E f^4 / (E f^2)^2 never exceed the library's
exact bound U(m).
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from irlap.aggregators import (
    NAMED_RULE_PARAMS,
    Aggregator,
    encode_g,
    profile_tables,
    random_aggregator,
)
from irlap.basis import LinFunction, perm_matrix
from irlap.laplacian import (
    QuadraticFormValue,
    apply_Ln,
    apply_quadratic_form,
    kappa,
    lprime_offset,
)
from irlap.metrics import ir_combinatorial, pair_count_tensors
from irlap.moments import (
    IDX_E3,
    IDX_E5,
    PARTITIONS,
    MomentVector,
    build_appendix,
    moments,
)
from irlap.perms import (
    build_fixing_subgroup,
    compose,
    enumerate_group,
    format_perm,
    inverse,
    parse_perm,
    perm_index,
    rank_classes,
    trivial_subgroup,
    voter_view,
    winner_subgroup,
)
from irlap.rounding import (
    KernelProjection,
    MomentDiagnostics,
    RobustnessReport,
    center_aggregator,
    kernel_projection,
    measured_gap,
)


def plurality_winner(profile, m: int) -> int:
    """The name with the most rank-1 votes; ties go to the lowest name."""
    counts = [0] * (m + 1)
    for x in profile:
        counts[x[0]] += 1
    return max(range(1, m + 1), key=lambda w: (counts[w], -w))


def borda_ranking(profile, m: int) -> tuple[int, ...]:
    """Names by total Borda score (rank r earns m - r), ties by name."""
    score = [0] * (m + 1)
    for x in profile:
        for r, name in enumerate(x, start=1):
            score[name] += m - r
    return tuple(sorted(range(1, m + 1), key=lambda v: (-score[v], v)))


def plurality_table(m: int, n: int) -> np.ndarray:
    H = winner_subgroup(m)
    winner_coset = {}
    for w in range(1, m + 1):
        rep = tuple([w] + sorted(v for v in range(1, m + 1) if v != w))
        winner_coset[w] = H.coset_ids[perm_index(rep)]
    table = np.empty(factorial(m) ** n, dtype=np.int64)
    for idx, profile in enumerate(itertools.product(enumerate_group(m), repeat=n)):
        table[idx] = winner_coset[plurality_winner(profile, m)]
    return table


def borda_table(m: int, n: int) -> np.ndarray:
    H = trivial_subgroup(m)
    table = np.empty(factorial(m) ** n, dtype=np.int64)
    for idx, profile in enumerate(itertools.product(enumerate_group(m), repeat=n)):
        table[idx] = H.coset_ids[perm_index(borda_ranking(profile, m))]
    return table


def scoring_table(s, H, n: int) -> np.ndarray:
    """The positional scoring rule with score vector s on H: a vote
    gives name j the points s[rank - 1], the names are sorted by
    (-total, name), and each profile maps to that ranking's coset."""
    m = H.m
    table = np.empty(factorial(m) ** n, dtype=np.int64)
    for idx, profile in enumerate(itertools.product(enumerate_group(m), repeat=n)):
        score = [0] * (m + 1)
        for x in profile:
            for r, name in enumerate(x, start=1):
                score[name] += s[r - 1]
        ranking = tuple(sorted(range(1, m + 1), key=lambda v: (-score[v], v)))
        table[idx] = H.coset_ids[perm_index(ranking)]
    return table


def set_partitions(items):
    """Every partition of the list items into blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]


def fixing_members(m: int, blocks) -> list[tuple[int, ...]]:
    """The permutations mapping every block onto itself, in lex order:
    each block's positions take every arrangement of the block."""
    members = []
    for arrangement in itertools.product(*(itertools.permutations(b) for b in blocks)):
        word = [0] * m
        for block, images in zip(blocks, arrangement):
            for pos, img in zip(block, images):
                word[pos - 1] = img
        members.append(tuple(word))
    return sorted(members)


def coset_arrays(H) -> tuple[list, list, list]:
    """H's coset ids, representatives and rank counts from the
    definition, one coset {compose(x, h) : h in H} at a time, over the
    members of `fixing_members`.  Cosets are numbered by their least
    member; ids[a] is the coset of the a-th permutation (lex), reps[c]
    the lex index of coset c's least member and prof[c][j-1][r-1] the
    members of coset c that rank j at r."""
    m = H.m
    perms = enumerate_group(m)
    members = fixing_members(m, H.partition)
    cosets, where = [], {}
    for x in perms:  # lex order meets each coset first at its least member
        if x not in where:
            cosets.append(sorted(compose(x, h) for h in members))
            where.update((y, len(cosets) - 1) for y in cosets[-1])
    ids = [where[x] for x in perms]
    reps = [perm_index(coset[0]) for coset in cosets]
    prof = [[[sum(1 for y in coset if y.index(j) == r) for r in range(m)]
             for j in range(1, m + 1)] for coset in cosets]
    return ids, reps, prof


def centered_table(agg: Aggregator) -> np.ndarray:
    m, n, H = agg.m, agg.n, agg.H
    table = np.empty(factorial(m) ** (n + 1), dtype=np.int64)
    for idx, profile in enumerate(itertools.product(enumerate_group(m), repeat=n + 1)):
        x, y = profile[:n], profile[n]
        w = tuple(compose(inverse(y), xi) for xi in x)
        rep = enumerate_group(m)[H.representatives[agg.table[agg.profile_index(w)]]]
        table[idx] = H.coset_ids[perm_index(compose(y, rep))]
    return table


def json_doc(agg: Aggregator) -> dict:
    doc = {
        "m": agg.m,
        "n": agg.n,
        "partition": [list(b) for b in agg.H.partition],
        "type": agg.kind,
        "params": dict(agg.params),
    }
    if agg.kind not in NAMED_RULE_PARAMS:
        entries = []
        for idx, profile in enumerate(itertools.product(enumerate_group(agg.m), repeat=agg.n)):
            rep = enumerate_group(agg.m)[agg.H.representatives[agg.table[idx]]]
            entries.append({"profile": [format_perm(x) for x in profile],
                            "output": format_perm(rep)})
        doc["entries"] = entries
    return doc


def json_table(doc: dict) -> np.ndarray:
    """The entries branch of from_json: the table a stored document
    describes, with every check of the original loop."""
    m, n = int(doc["m"]), int(doc["n"])
    H = build_fixing_subgroup(m, doc["partition"])
    fact = factorial(m)
    table = np.full(fact**n, -1, dtype=np.int64)
    for entry in doc["entries"]:
        profile = [parse_perm(t, m) for t in entry["profile"]]
        if len(profile) != n:
            raise ValueError("entry profile has wrong voter count")
        idx = 0
        for x in profile:
            idx = idx * fact + perm_index(x)
        if table[idx] >= 0:
            raise ValueError(f"duplicate entry for profile {entry['profile']}")
        table[idx] = H.coset_ids[perm_index(parse_perm(entry["output"], m))]
    if (table < 0).any():
        missing = int((table < 0).sum())
        raise ValueError(f"table not total: {missing} profiles missing")
    return table


def degree2_residual(values: np.ndarray, n: int, table) -> float:
    """One scalar function, one einsum per voter and voter pair."""
    fact = len(table.perms)
    d = table.m - 1
    f = values.reshape((fact,) * n)
    total = float((f**2).mean())
    explained = float(f.mean()) ** 2
    for i in range(n):
        axes = tuple(ax for ax in range(n) if ax != i)
        per = f.mean(axis=axes) if axes else f
        coef = np.einsum("v,vab->ab", per, table.R) / fact
        explained += float((coef**2).sum()) * d
    for i in range(n):
        for j in range(i + 1, n):
            axes = tuple(ax for ax in range(n) if ax not in (i, j))
            per = f.mean(axis=axes) if axes else f
            coef = np.einsum("vw,vab,wcd->abcd", per, table.R, table.R) / fact**2
            explained += float((coef**2).sum()) * d * d
    return max(total - explained, 0.0)


def fkn_r(agg: Aggregator, table) -> np.ndarray:
    """r = h h^T - M of `rounding.fkn_diagnostics` on every profile in
    `table`'s basis, shape (m!^n, m-1, m-1), with h evaluated from the
    float A."""
    proj = kernel_projection(agg)
    m, n, K = agg.m, agg.n, proj.trace
    C = table.basis.C
    A = np.einsum("ak,iab,bl->ikl", C, proj.Q, C) / (
        factorial(m) ** n * agg.H.order * m * math.sqrt(K))
    h = LinFunction(n, np.zeros((m - 1, m - 1)), A).evaluate_all(table)
    return np.einsum("xkl,xtl->xkt", h, h) - encode_g(agg, table)[0] / K


@dataclass
class FloatMoments:
    """The moments of r counted over every profile, in one basis."""

    epsilon: Fraction
    r_norm2_mean: float  # E ||r||^2
    r_sup: float  # max_x ||r(x)||^2
    r_entry4_max: float  # max_ab E r_ab^4
    alpha: float
    tail_prob: float  # P(||r|| > alpha)
    tail_markov_bound: float
    bound: Fraction
    bound_ok: bool


def fkn_diagnostics(agg: Aggregator, table) -> FloatMoments:
    """The moments of r in `table`'s basis as whole-array float
    reductions over every profile; E ||r||^2, the Markov bound and
    bound_ok from the float mean, not the closed form."""
    proj = kernel_projection(agg)
    m, K = agg.m, proj.trace
    eps = (proj.kernel_distance_sq + proj.B_norm_sq) / K
    r = fkn_r(agg, table)
    norm2 = (r**2).sum(axis=(1, 2))
    r_norm2 = float(norm2.mean())
    alpha = 6 * (m - 1) * m**2 * math.sqrt(eps)
    tail = 0.0 if eps == 0 else float((np.sqrt(norm2) > alpha).mean())
    markov = 0.0 if eps == 0 else r_norm2 / alpha**2
    bound = 108 * (m - 1) ** 4 * m**4 * eps
    return FloatMoments(eps, r_norm2, float(norm2.max()), float((r**4).mean(axis=0).max()),
                        alpha, tail, markov, bound, r_norm2 <= bound)


def _centered(X: np.ndarray) -> np.ndarray:
    """mPi X mPi over Python ints, mPi = m I - J: <C^T X C, C^T Y C> =
    <_centered(X), Y> / m^2 for the sum-zero basis C."""
    m = X.shape[-1]
    mPi = (m * np.eye(m, dtype=np.int64) - 1).astype(object)
    return mPi @ X.astype(object) @ mPi


def centered_readout(agg: Aggregator, Q: np.ndarray) -> KernelProjection:
    """The projection of agg from its Q^i and its coset counts, every
    inner product taken through the explicit products mPi X mPi rather
    than through the zero margins of Q^i (irlap.rounding docstring).
    The B term is Xb = sum_c #c Pc[c], with Pc[c] = |H| times coset c's
    mean of P."""
    m, n, H = agg.m, agg.n, agg.H
    N, h, K = factorial(m) ** n, H.order, H.orbit_count - 1
    Pc = profile_tables(H).prof.swapaxes(1, 2)
    Xb = np.einsum("c,cab->ab", np.bincount(agg.table, minlength=len(Pc)), Pc)
    cQ = _centered(Q)
    norms = [Fraction(int((cQ[i] * Q[i]).sum()), (N * h * m * m) ** 2) for i in range(n)]
    # the nearest dictator: the first maximum of every voter's coset scores
    scores = [(Pc.reshape(len(Pc), -1).astype(object) @ cQ[i].reshape(-1)).tolist()
              for i in range(n)]
    best, coset = max(itertools.product(range(n), range(len(Pc))),
                      key=lambda ic: scores[ic[0]][ic[1]])
    scores = scores[best]
    B_sq = Fraction(int((_centered(Xb) * Xb).sum()), (N * h * m) ** 2)
    # the integers of the readout, on the library's scale U = (N h m)^2
    U = (N * h * m) ** 2
    return KernelProjection(
        trace=K, Q=Q, scale=U, sq_norms=tuple(int(v * U) for v in norms),
        b=int(B_sq * (N * h) ** 2), score=int(Fraction(scores[coset], m * m)),
        B_norm_sq=B_sq, coefficient_norms=tuple(norms),
        kernel_distance_sq=K - B_sq - sum(norms), voter=best + 1, coset=coset,
        dictator_distance_sq=2 * K - Fraction(2 * scores[coset], N * h * h * m**3),
    )


def project_by_fractions(agg: Aggregator) -> KernelProjection:
    """The kernel projection read off Q and Xb with one Fraction
    operation per step: Q and Xb by einsum over F, every norm a Fraction,
    and the distances by Fraction sums (irlap.rounding docstring)."""
    m, n, H = agg.m, agg.n, agg.H
    N, h, K = factorial(m) ** n, H.order, H.orbit_count - 1
    tables = profile_tables(H)
    cat = np.array(tables.catalog, dtype=np.int64)
    F = pair_count_tensors(agg)[0].sum(axis=-1) // factorial(m)
    Q = m * np.einsum("ijrp,pa->iar", F, cat) - N * h
    Xb = np.einsum("jrp,pa->aj", F[0], cat)
    a = [sum(v * v for v in q) for q in Q.reshape(n, -1).tolist()]
    norms = [Fraction(v, (N * h * m) ** 2) for v in a]
    # the nearest dictator: the first maximum of every voter's coset scores
    scores = [tables.prof.reshape(len(tables.prof), -1) @ Q[i].T.reshape(-1) for i in range(n)]
    best, coset = max(itertools.product(range(n), range(len(tables.prof))),
                      key=lambda ic: scores[ic[0]][ic[1]])
    scores = scores[best]
    b = sum(v * v for v in Xb.reshape(-1).tolist()) - (N * h) ** 2
    B_sq = Fraction(b, (N * h) ** 2)
    return KernelProjection(
        trace=K, Q=Q, scale=(N * h * m) ** 2, sq_norms=tuple(a), b=b, score=int(scores[coset]),
        B_norm_sq=B_sq, coefficient_norms=tuple(norms),
        kernel_distance_sq=K - B_sq - sum(norms), voter=best + 1, coset=coset,
        dictator_distance_sq=2 * K - Fraction(2 * int(scores[coset]), N * h * h * m),
    )


def fkn_by_fractions(agg: Aggregator) -> MomentDiagnostics:
    """The moment diagnostics as Fraction arithmetic on the Fraction
    fields of `project_by_fractions`, with E ||r||^2 through the
    explicit centering (irlap.rounding.MomentDiagnostics)."""
    proj = project_by_fractions(agg)
    m, n, K = agg.m, agg.n, proj.trace
    eps = (proj.kernel_distance_sq + proj.B_norm_sq) / K
    S = sum(proj.coefficient_norms)
    h_sq = n * S / K
    delta = S - K + proj.dictator_distance_sq
    sup = min(2 * h_sq * h_sq + Fraction(2, K), 2 * (h_sq + 1) * n * delta / K)
    r_norm2 = r_norm2_mean_by_centering(proj, agg.H)
    alpha_sq = 36 * (m - 1) ** 2 * m**4 * eps
    markov = Fraction(0) if eps == 0 else r_norm2 / alpha_sq
    tail = Fraction(0) if sup < alpha_sq else min(Fraction(1), markov)
    bound = 108 * (m - 1) ** 4 * m**4 * eps
    alpha = 6 * (m - 1) * m**2 * math.sqrt(eps)
    return MomentDiagnostics(eps, r_norm2, sup, sup * r_norm2, alpha, tail, markov, bound,
                             r_norm2 <= bound)


def robustness_report_by_fractions(agg: Aggregator, center: bool = False) -> RobustnessReport:
    """robustness_report from `project_by_fractions` and
    `fkn_by_fractions`, the rounding factor the square root of a
    Fraction ratio."""
    work = center_aggregator(agg) if center else agg
    proj = project_by_fractions(work)
    gap, exhaustive = measured_gap(work.m, work.n)
    unconstrained = proj.trace - proj.coefficient_norms[proj.voter - 1]
    factor = 1.0 if unconstrained == 0 else math.sqrt(proj.dictator_distance_sq / unconstrained)
    return RobustnessReport(
        m=work.m, n=work.n, ir=ir_combinatorial(work).profile_distance,
        kernel_distance_sq=proj.kernel_distance_sq, gap=gap, gap_exhaustive=exhaustive,
        voter=proj.voter, coefficient_norms=list(proj.coefficient_norms),
        rounded_sigma=format_perm(enumerate_group(work.m)[work.H.representatives[proj.coset]]),
        rounded_coset=proj.coset, dictator_distance_sq=proj.dictator_distance_sq,
        rounding_factor=factor, centered=center, diagnostics=fkn_by_fractions(work),
    )


def quadratic_form_by_fractions(agg: Aggregator, variant: str) -> QuadraticFormValue:
    """The L, L' and L'' forms as Fraction arithmetic: the raw value over
    |H|^2, then kappa (raw - offset), with the same-rank block summed
    from the pair counts (irlap.laplacian.apply_quadratic_form)."""
    m, n, H = agg.m, agg.n, agg.H
    scale = kappa(variant, m, n)
    if variant == "L":
        canonical = apply_Ln(agg)
        return QuadraticFormValue("L", canonical / scale, canonical)
    tables = profile_tables(H)
    S = int((pair_count_tensors(agg)[1].sum(axis=(0, 1, 2)) * tables.dot).sum())
    hh, k = H.order ** 2, factorial(m - 1)
    if variant == "L1":
        raw = Fraction(hh * n * m * factorial(m) ** n * k - S, hh)
        return QuadraticFormValue("L1", raw, scale * (raw - lprime_offset(m, n, H)))
    diag = int((tables.prof ** 2).sum(axis=(1, 2))[agg.table].sum())
    raw = Fraction(n * k * diag - S, hh)
    return QuadraticFormValue("L2", raw, scale * raw)


def r_norm2_mean_by_centering(proj: KernelProjection, H) -> Fraction:
    """E ||r||^2 from the Gram matrices of B_i = mPi Q^i mPi, with D =
    m^3 m!^n |H| (irlap.rounding.MomentDiagnostics, before its reduction
    to Q^i)."""
    Q, K, h = proj.Q, proj.trace, H.order
    n, m = Q.shape[:2]
    D = m**3 * factorial(m) ** n * h
    B = _centered(Q)
    G = (B @ B.transpose(0, 2, 1)).reshape(n, m * m)
    S, tr = G.sum(axis=0), G[:, ::m + 1].sum(axis=1)
    s4 = m * (S @ S) + tr.sum() ** 2 - (G * G).sum() - (tr * tr).sum()
    cross = profile_tables(H).prof[0].reshape(-1).astype(object) @ S
    return Fraction(s4 - 2 * (m - 1) * (D * D // h) * cross + (m - 1) * D**4 * K,
                    (m - 1) * D**4 * K * K)


def kernel_projection_by_votes(agg: Aggregator) -> KernelProjection:
    """The exact projection from counts[i, v, c], the profiles where
    voter i+1 casts v and the output is coset c, one bincount per vote:
    Q^i = sum_{v,c} counts[i, v, c] Pc[c] mPi P(v)^T, read out through
    the explicit centering (`centered_readout`)."""
    m, n, H = agg.m, agg.n, agg.H
    Pc = profile_tables(H).prof.swapaxes(1, 2)
    ncos, fact = len(Pc), factorial(m)
    mPi = m * np.eye(m, dtype=np.int64) - 1
    counts = np.zeros((n, fact, ncos), dtype=np.int64)
    for i in range(n):
        view = voter_view(agg.table, i, n)
        for v in range(fact):
            counts[i, v] = np.bincount(view[v], minlength=ncos)
    per_vote = (counts @ (Pc @ mPi).reshape(ncos, -1)).reshape(n, -1, m, m)
    P = np.array([perm_matrix(x) for x in enumerate_group(m)])
    return centered_readout(agg, np.einsum("ivab,vcb->iac", per_vote, P))


def _block_of(partition) -> tuple[int, int, int, int]:
    out = [0] * 4
    for b, block in enumerate(partition):
        for t in block:
            out[t] = b
    return tuple(out)


def _powmat(A, power: int):
    return [[v**power for v in row] for row in A]


def _contract_component(nodes, edges, m: int, A) -> int:
    """Sum over labelings of one connected piece of the contraction
    graph.  edges: {(rnode, cnode): multiplicity}.  Leaf nodes are
    absorbed into neighbor weight vectors first; whatever remains
    (cycles) is brute-forced, at most m^4 terms."""
    pow_cache: dict[int, list] = {}

    def pmat(p):
        if p not in pow_cache:
            pow_cache[p] = _powmat(A, p)
        return pow_cache[p]

    edges = dict(edges)
    vecs: dict = {}
    active = set(nodes)
    while True:
        degree = defaultdict(list)
        for key in edges:
            degree[key[0]].append(key)
            degree[key[1]].append(key)
        leaf = next(
            (nd for nd in active if len(degree[nd]) == 1 and len(active) > 1), None
        )
        if leaf is None:
            break
        key = degree[leaf][0]
        rnode, cnode = key
        mat = pmat(edges.pop(key))
        other = cnode if leaf == rnode else rnode
        lvec = vecs.pop(leaf, [1] * m)
        if leaf == rnode:
            w = [sum(lvec[r] * mat[r][c] for r in range(m)) for c in range(m)]
        else:
            w = [sum(mat[r][c] * lvec[c] for c in range(m)) for r in range(m)]
        if other in vecs:
            vecs[other] = [a * b for a, b in zip(vecs[other], w)]
        else:
            vecs[other] = w
        active.discard(leaf)
    order = sorted(active)
    total = 0
    for assignment in itertools.product(range(m), repeat=len(order)):
        val = {nd: v for nd, v in zip(order, assignment)}
        term = 1
        for (rn, cn), p in edges.items():
            term *= pmat(p)[val[rn]][val[cn]]
        for nd, vec in vecs.items():
            term *= vec[val[nd]]
        total += term
    return total


def _contract(pi: int, pj: int, A, m: int) -> int:
    """E-row(pi) . (A tensor^4) . E-row(pj), for integer A."""
    bi = _block_of(PARTITIONS[pi])
    bj = _block_of(PARTITIONS[pj])
    edges: dict = defaultdict(int)
    for t in range(4):
        edges[(("r", bi[t]), ("c", bj[t]))] += 1
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for rn, cn in edges:
        parent.setdefault(rn, rn)
        parent.setdefault(cn, cn)
        parent[find(rn)] = find(cn)
    comps = defaultdict(lambda: (set(), {}))
    for key, power in edges.items():
        root = find(key[0])
        comps[root][0].update(key)
        comps[root][1][key] = power
    total = 1
    for nodes, comp_edges in comps.values():
        total *= _contract_component(nodes, comp_edges, m, A)
    return total


def blocks_by_contraction(A) -> list[list[Fraction]]:
    """E (A tensor^4) E^T by graph contraction of each pair of
    patterns: leaves are folded into weight vectors, cycles summed."""
    fracs = [[Fraction(v) for v in row] for row in A]
    den = math.lcm(*(v.denominator for row in fracs for v in row))
    ints = [[int(v * den) for v in row] for row in fracs]
    m = len(ints)
    scale = Fraction(1, den**4)
    return [[scale * _contract(pi, pj, ints, m) for pj in range(15)]
            for pi in range(15)]


def moments_by_loops(A) -> MomentVector:
    """The seven moment operators, one entry at a time, in the
    arithmetic of the entries (ints stay ints, Fractions Fractions)."""
    rows = [list(r) for r in A]
    m = len(rows)
    cols = [[rows[i][j] for i in range(m)] for j in range(m)]
    entries = [v for r in rows for v in r]
    gram = [[sum(a * b for a, b in zip(ri, rj)) for rj in rows] for ri in rows]
    return MomentVector(
        sum(entries), sum(v * v for v in entries), sum(v * v * v for v in entries),
        sum(v * v * v * v for v in entries),
        sum(sum(v * v for v in r) ** 2 for r in rows),
        sum(sum(v * v for v in c) ** 2 for c in cols),
        sum(g * g for r in gram for g in r),
    )


def exhaustive_moment(A, m: int, k: int) -> Fraction:
    """E_x f(x)^k by summation over all of S_m (f(x) = tr(A P(x)) =
    sum_r A[r, x(r)])."""
    rows = [list(r) for r in A]
    total = Fraction(0)
    perms = enumerate_group(m)
    for x in perms:
        val = sum(rows[r][x[r] - 1] for r in range(m))
        total += Fraction(val) ** k
    return total / len(perms)


def gram_c15(m: int) -> list[list[int]]:
    """C15[p, q] = m^(blocks of join(p, q)), the join found by merging
    the positions of each block of p and of q."""
    def join_blocks(p, q) -> int:
        label = list(range(4))
        for block in (*p, *q):
            for t in block[1:]:
                old, new = label[t], label[block[0]]
                label = [new if v == old else v for v in label]
        return len(set(label))

    return [[m ** join_blocks(p, q) for q in PARTITIONS] for p in PARTITIONS]


def _bareiss_inverse(X: list[list[int]]) -> tuple[int, list[list[int]] | None]:
    """(det X, det(X) * X^-1) of a square integer matrix, both integer,
    from one fraction-free (Bareiss) Gauss-Jordan pass over Python ints
    on [X | I]; (0, None) when X is singular.  Every entry stays an
    integer minor, so each division is exact; at the end the left half
    is d*I with d = +-det X (the sign counts row swaps), and the right
    half is d*X^-1."""
    n = len(X)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(X)]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        pk = a[k]
        piv = pk[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(piv * x - f * y) // prev for x, y in zip(a[i], pk)]
        prev = piv
    return sign * prev, [[sign * v for v in row[n:]] for row in a]


def frac_inv_det(M) -> tuple[list[list[Fraction]] | None, Fraction]:
    """Exact inverse and determinant of a rational matrix, from
    `_bareiss_inverse` on X = den*M: M^-1 = den X^-1 and det M =
    det X / den^n.  The inverse is None when M is singular
    (determinant 0)."""
    fracs = [[Fraction(v) for v in row] for row in M]
    den = math.lcm(*(v.denominator for row in fracs for v in row))
    det, adj = _bareiss_inverse([[int(v * den) for v in row] for row in fracs])
    if adj is None:
        return None, Fraction(0)
    inv = [[Fraction(den * v, det) for v in row] for row in adj]
    return inv, Fraction(det, den ** len(adj))


def zero_margin_sample(m: int, rng, count: int, spread: int = 9) -> np.ndarray:
    """A (count, m, m) stack of float matrices with exactly zero margins
    (so E f = 0), each rescaled to E f^2 = 1.  A draw with M2 = 0 (a
    pattern D[i, j] = r_i + c_j) is skipped and the next draw takes its
    place, so the stack is the one count single draws would give."""
    stacks = []
    while count:
        D = rng.integers(-spread, spread + 1, size=(count, m, m)).astype(float)
        A0 = m * m * D - m * D.sum(axis=-1, keepdims=True) \
            - m * D.sum(axis=-2, keepdims=True) + D.sum(axis=(-2, -1), keepdims=True)
        m2 = (A0**2).sum(axis=(-2, -1))
        keep = m2 > 0
        stacks.append(A0[keep] * np.sqrt((m - 1) / m2[keep])[:, None, None])
        count -= int(keep.sum())
    return stacks[0] if len(stacks) == 1 else np.concatenate(stacks)


def norm4_zero_margin(mv: MomentVector, c15_inv: np.ndarray):
    """E f^4 for zero-margin A in floats: only the pair-pair and
    all-equal patterns survive (irlap.moments docstring).  Broadcasts
    over the moment arrays of a stack; scalar moments give a float."""
    idx = list(IDX_E3) + [IDX_E5]
    Mq = np.asarray(mv.Mq)
    B = np.empty(Mq.shape + (4, 4), dtype=Mq.dtype)
    B[...] = Mq[..., None, None]
    B[..., range(3), range(3)] = np.asarray(mv.M2 * mv.M2)[..., None]
    B[..., :3, 3] = np.asarray(mv.Mc)[..., None]
    B[..., 3, :3] = np.asarray(mv.Mr)[..., None]
    B[..., 3, 3] = mv.M4
    sub = c15_inv[np.ix_(idx, idx)]
    out = (B * sub.T).sum(axis=(-2, -1))
    return float(out) if Mq.ndim == 0 else out


def moment_bounds_ok(mv: MomentVector, m: int, tol: float = 1e-9) -> dict:
    """Normalized-function moment bounds: |M1| <= m sqrt((m-1)/(m-2)),
    M2 <= m-1, Mq <= M2^2 (for E f^2 = 1); elementwise over a stack."""
    m1_bound = m * np.sqrt((m - 1) / (m - 2))
    return {
        "M1": abs(mv.M1) <= m1_bound * (1 + tol),
        "M2": mv.M2 <= (m - 1) * (1 + tol),
        "Mq": mv.Mq <= mv.M2 * mv.M2 * (1 + tol),
    }


def sampled_sweep(m: int, sigma, samples: int, seed: int) -> dict:
    """The sampled hypercontractivity check that irlap.moments replaced
    with the exact bound U(m): `samples` zero-mean unit-variance band
    functions in one stack, their largest E f^4 / (E f^2)^2 ratio (E f^2
    is 1), the violations of sigma^4 E f^4 <= 1 at sigma (default
    m^-1/2) and the draws failing a moment bound."""
    sigma = float(sigma) if sigma is not None else m**-0.5
    mv = moments(zero_margin_sample(m, np.random.default_rng(seed), samples))
    f4 = norm4_zero_margin(mv, build_appendix(m).C15_inv_float)
    t4 = sigma**4 * f4
    ok = moment_bounds_ok(mv, m)
    return {"m": m, "sigma": sigma, "samples": samples,
            "violations": int((t4 > 1 + 1e-9).sum()), "max_ratio": float(f4.max()),
            "max_T4_norm4": float(t4.max()),
            "moment_bound_failures": int((~(ok["M1"] & ok["M2"] & ok["Mq"])).sum())}


def degree2_product_check(m: int, samples: int = 50, seed: int = 0) -> dict:
    """Degree-2 norm growth: a product of two independent normalized
    band functions h(x1, x2) = f1(x1) f2(x2) must satisfy
    ||h||_4^4 <= sigma^-8 at a certified (m, sigma = m^-1/2); the
    (f1, f2) pairs are consecutive draws of one stack."""
    rng = np.random.default_rng(seed)
    c15_inv = build_appendix(m).C15_inv_float
    sigma = m**-0.5
    bound = sigma**-8.0
    f4 = norm4_zero_margin(moments(zero_margin_sample(m, rng, 2 * samples)), c15_inv)
    worst = float((f4[0::2] * f4[1::2]).max())
    return {"m": m, "sigma": sigma, "bound": bound, "max_h4": worst,
            "holds": worst <= bound * (1 + 1e-9)}


def membership_matrix(H) -> np.ndarray:
    """Mem[c, x] = 1 iff the x-th permutation (lex order) lies in coset c."""
    Mem = np.zeros((len(H.representatives), factorial(H.m)), dtype=np.int64)
    Mem[H.coset_ids, np.arange(factorial(H.m))] = 1
    return Mem


def coset_agreement(H, X: np.ndarray) -> np.ndarray:
    """agree[j] = Mem X^j Mem^T: member pairs of two cosets that give
    alternative j the same rank."""
    Mem = membership_matrix(H)
    return Mem @ X.astype(np.int64) @ Mem.T


def switch_class_cosets(agg: Aggregator) -> np.ndarray:
    """cc[i, j, r, s, c] = profiles of switch class (i, j, r, s) mapped
    to coset c: voter i+1 ranks alternative j+1 at r+1 and the other
    voters, in order, have mixed-radix index s.  One profile at a time."""
    m, n = agg.m, agg.n
    perms = enumerate_group(m)
    fact = len(perms)
    cc = np.zeros((n, m, m, fact ** (n - 1), len(agg.H.representatives)), dtype=np.int64)
    for p, profile in enumerate(itertools.product(range(fact), repeat=n)):
        for i in range(n):
            s = 0
            for v in profile[:i] + profile[i + 1:]:
                s = s * fact + v
            for j in range(m):
                cc[i, j, perms[profile[i]].index(j + 1), s, agg.table[p]] += 1
    return cc


def coset_form_raw(agg: Aggregator, X: np.ndarray, variant: str) -> Fraction:
    """Raw L' ("L1", X (x) complement X) or L'' ("L2", Y (x) X) from the
    coset histogram of every switch class and the dense X^j."""
    m, n, H = agg.m, agg.n, agg.H
    h = H.order
    agree = coset_agreement(H, X)
    pair = h * h - agree if variant == "L1" else agree
    cc = switch_class_cosets(agg)
    total = int(np.einsum("ijrsp,jpq,ijrsq->", cc, pair, cc, optimize=True))
    if variant == "L2":
        # the Y diagonal: every profile sits in (m-1)! switch pairs per (i, j)
        diag = np.einsum("jpp->jp", pair)[:, agg.table]
        total = n * factorial(m - 1) * int(diag.sum()) - total
    return Fraction(total, h * h)


def _class_sum_form(agg: Aggregator, table) -> float:
    """tr(G L^n G^T) for the matrix encoding in `table`'s basis, via the
    per-class identity: the Y (x) D form on one rank class equals
    (m-1)! sum_a ||v_a||^2 - ||sum_a v_a||^2 with v_a = C_j g(a)^T =
    W_j[f(a)], W_j = g_c C_j a per-coset table gathered through the
    classes of the coset table, the class terms added in (i, j, r)
    order."""
    m, n = agg.m, agg.n
    k, classes = factorial(m - 1), rank_classes(m)
    g = encode_g(agg, table)
    W = [np.einsum("l,xkl->xk", c, g) for c in table.basis.C]  # (#cosets, m-1)
    norms = [np.einsum("xk,xk->x", Wj, Wj) for Wj in W]
    terms = np.empty((n, m, m))
    for i in range(n):
        view = voter_view(agg.table, i, n)
        for j in range(m):
            cls = view[classes[j]]  # (m, (m-1)!, slabs) coset ids
            sums = W[j][cls].sum(axis=1)  # (m, slabs, m-1)
            norm_sums = norms[j][cls]
            for r in range(m):
                terms[i, j, r] = k * norm_sums[r].sum() - np.einsum("sk,sk->", sums[r], sums[r])
    return float(np.cumsum(terms)[-1])  # cumsum adds one term at a time


def l_form_float(agg: Aggregator, table) -> float:
    """The canonical L value from the float class sums of agg in
    `table`'s basis: 2 tr(G L^n G^T) / m!^(n+1)."""
    return float(2 * _class_sum_form(agg, table) / factorial(agg.m) ** (agg.n + 1))


def calibrate_kappa(variant: str, m: int, n: int, H, trials: int = 5, seed: int = 0) -> list:
    """Canonical-IR / raw-form ratios (after the L' offset) on random
    aggregators, exact Fractions; all must equal kappa(variant)."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        agg = random_aggregator(m, n, H, rng)
        qf = apply_quadratic_form(agg, None, variant)
        raw = qf.raw - lprime_offset(m, n, H) if variant == "L1" else qf.raw
        if raw != 0:
            ratios.append(ir_combinatorial(agg).profile_distance / raw)
    return ratios
