"""Shared plumbing: feasibility refusals, deterministic parallel map,
per-instance memos, JSON encoding of exact values."""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction


class FeasibilityError(RuntimeError):
    """Raised instead of attempting work past a documented size budget."""

    def __init__(self, message: str, estimate: str | None = None):
        super().__init__(message)
        self.estimate = estimate


def size_past(limit: int, coef: int, base: int, exp: int, digits: int) -> str | None:
    """None if the size coef * base**exp (positive ints) is at most limit
    (< 2^2048); else the size as f"{size:.{digits}e}" prints it, without
    a float, and past 2^2048 from its logarithm: 10^log past 10^(10^25)."""
    exact = base < 2 or exp * (base.bit_length() - 1) < 1024  # base**exp < 2^2048
    if exact and coef * base**exp <= limit:
        return None
    with localcontext() as ctx:
        ctx.prec = digits + 40
        if exact:
            mantissa, scale = Decimal(coef * base**exp), 0
        else:
            log = Decimal(coef).log10() + exp * Decimal(base).log10()
            if log.adjusted() >= 25:  # too few fraction digits are left for a mantissa
                return f"10^{log:.{digits}e}"
            mantissa, scale = 10 ** (log % 1), int(log)
        head, _, shift = f"{mantissa:.{digits}e}".partition("e")
    return f"{head}e+{scale + int(shift):02d}"


def blocked_pmap(fn, items, threads: int = 1) -> list:
    """Map preserving input order; results are independent of the pool
    size because reduction happens in list order after the gather."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here: concurrent.futures pulls in logging, a cost every
    # CLI start-up would pay for the one threaded path
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def memoized(obj, key: str, build):
    """build(obj), computed on obj's first request for `key` and kept in
    obj's own `_derived` dict, so it lives and dies with obj.  Only for
    objects whose inputs are read-only: no kept value can go stale.
    Two threads asking first may both build; they build equal values."""
    derived = obj._derived
    if key not in derived:
        derived[key] = build(obj)
    return derived[key]


def jsonable(value):
    """Recursively convert report values to JSON-encodable types.
    Fractions become exact "p/q" strings."""
    import numpy as np

    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def parse_fraction(text) -> Fraction:
    """Exact value of a "p/q" string, an integer or a decimal; anything
    else (null, a boolean, a list, 1/0, inf) is a ValueError."""
    if isinstance(text, bool):  # Fraction(True) is 1
        raise ValueError(f"not a number: {text!r}")
    try:
        if isinstance(text, str) and "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"not a number: {text!r:.60}") from exc


def expect_json(value, kind: type, what: str):
    """value, if it is a JSON list or object as `kind` says; otherwise a
    ValueError, so a document of the wrong shape is an input error
    rather than a TypeError further in."""
    if not isinstance(value, kind):
        name = "list" if kind is list else "object"
        raise ValueError(f"{what} must be a JSON {name}, got {value!r:.60}")
    return value


def expect_key(doc: dict, key: str, what: str):
    """doc[key]; a missing key is a ValueError naming `what` and the key,
    so it is an input error rather than a bare KeyError."""
    if key not in doc:
        raise ValueError(f"{what} has no key {key!r}")
    return doc[key]
