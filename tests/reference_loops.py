"""Per-profile Python loops kept as reference implementations.

The library builds rule tables, centered tables, JSON documents and
the degree-2 residual with numpy array kernels; these are the loops
they replaced, written one profile at a time from the definitions.
tests/test_array_kernels.py checks that both give the same results.
"""

from __future__ import annotations

import itertools
from math import factorial

import numpy as np

from irlap.aggregators import NAMED_RULE_PARAMS, Aggregator
from irlap.perms import (
    build_fixing_subgroup,
    compose,
    enumerate_group,
    format_perm,
    inverse,
    parse_perm,
    perm_index,
    trivial_subgroup,
    winner_subgroup,
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
        winner_coset[w] = H.coset_index[rep]
    table = np.empty(factorial(m) ** n, dtype=np.int64)
    for idx, profile in enumerate(itertools.product(enumerate_group(m), repeat=n)):
        table[idx] = winner_coset[plurality_winner(profile, m)]
    return table


def borda_table(m: int, n: int) -> np.ndarray:
    H = trivial_subgroup(m)
    table = np.empty(factorial(m) ** n, dtype=np.int64)
    for idx, profile in enumerate(itertools.product(enumerate_group(m), repeat=n)):
        table[idx] = H.coset_index[borda_ranking(profile, m)]
    return table


def centered_table(agg: Aggregator) -> np.ndarray:
    m, n, H = agg.m, agg.n, agg.H
    table = np.empty(factorial(m) ** (n + 1), dtype=np.int64)
    for idx, profile in enumerate(itertools.product(enumerate_group(m), repeat=n + 1)):
        x, y = profile[:n], profile[n]
        w = tuple(compose(inverse(y), xi) for xi in x)
        rep = H.cosets[int(agg.table[agg.profile_index(w)])].representative
        table[idx] = H.coset_index[compose(y, rep)]
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
            rep = agg.H.cosets[int(agg.table[idx])].representative
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
        table[idx] = H.coset_index[parse_perm(entry["output"], m)]
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
