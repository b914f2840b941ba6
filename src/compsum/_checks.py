"""The package's one argument contract.

Every exported entry checks its arguments here. A check takes a value and
the name of its argument, returns the value in the form the caller computes
with, and refuses anything else with a ``ValueError`` whose message begins
with that name. A bool, a NaN or a non-number is never a number, and an
integer is an ``int`` or a numpy integer: ``3.0`` is not one. A batch
entry refuses instance ``k``'s argument under the name of the list and the
index that hold it, ``taus[2]: tau must lie in [0, 100]``.
"""

import math
import re

import numpy as np

# The outer transform is defined for every tau >= 0; values beyond this cap
# are rejected because the family saturates and float powers degrade.
TAU_MAX = 100.0
TAU_RANGE = f"[0, {TAU_MAX:g}]"

_NUMBERS = (int, float, np.integer, np.floating)
_BOUNDS = {}  # interval text -> (lo, hi, lo_open, hi_open, rule)


def _bounds(text):
    """``"[0, inf)"`` parsed, ``rule`` the words that follow ``must`` in
    the refusal of a number outside it."""
    low, high = text[1:-1].split(", ")
    lo, hi, lo_open, hi_open = (float(low), float(high), text[0] == "(",
                                text[-1] == ")")
    if hi < math.inf:
        rule = f"lie in {text}"
    elif lo == -math.inf:
        rule = "be finite" if hi_open else "be a number"
    else:
        rule = ("be finite and " if hi_open else "be ") + (
            ("positive" if lo_open else "nonnegative") if lo == 0.0
            else f"{'>' if lo_open else '>='} {low}")
    return _BOUNDS.setdefault(text, (lo, hi, lo_open, hi_open, rule))


def real(value, name, interval="(-inf, inf)"):
    """``value`` as a float in ``interval``, written ``"[0, inf)"``: a
    bracket includes its end and a parenthesis excludes it, so infinity
    passes only where a bracket includes it, as in ``"(0, inf]"``."""
    lo, hi, lo_open, hi_open, rule = (_BOUNDS.get(interval)
                                      or _bounds(interval))
    if value.__class__ is not float:
        if isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{name} must be a number, not a bool")
        if not isinstance(value, _NUMBERS):
            raise ValueError(f"{name} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int beyond every float
            value = math.nan
    if not ((lo < value if lo_open else lo <= value)
            and (value < hi if hi_open else value <= hi)):
        raise ValueError(f"{name} must {rule}")
    return value


def tau(value):
    """The family parameter as a float in ``[0, TAU_MAX]``."""
    if value.__class__ is float and 0.0 <= value <= TAU_MAX:
        return value
    return real(value, "tau", TAU_RANGE)


def integer(value, name, floor=0):
    """``value`` as an int of at least ``floor``."""
    if value.__class__ is int and value >= floor:
        return value
    if not isinstance(value, np.integer) or value < floor:
        raise ValueError(f"{name} must be an integer >= {floor}, got "
                         f"{value!r}")
    return int(value)


def sizes(floor=1, **values):
    """The named dimensions, counts or seeds of a model, dataset or config,
    each an integer of at least ``floor``; checked as numbers first, so a
    bool or a value below ``floor`` gets the refusal of ``real``."""
    for name, value in values.items():
        real(value, name, f"[{floor}, inf]")
        integer(value, name, floor)


def integers(values, name, floor):
    """``values``, a number or an array, as int64 integers >= ``floor``."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu" or a.size and a.min() < floor:
        raise ValueError(f"{name} must be an integer >= {floor}, got "
                         f"{values!r}")
    return a.astype(np.int64, copy=False)


def label(y, n, name):
    """``y`` as an int label in ``[0, n)``."""
    if not (y.__class__ is int or isinstance(y, np.integer)) \
            or not 0 <= y < n:
        raise ValueError(f"{name} must be a label in [0, {n}), got {y!r}")
    return int(y)


def labels(Y, n, rows):
    """``Y`` as a 1-D integer array of ``rows`` labels in ``[0, n)``. As
    unsigned integers the negative labels lie above every count, so one
    reduction checks the range."""
    Y = np.asarray(Y)
    if Y.dtype.kind not in "iu" or Y.shape != (rows,):
        raise ValueError("Y: labels must be a 1-D integer array with one "
                         f"per row, got {Y.dtype} of shape {Y.shape}")
    if Y.size and not Y.view(f"u{Y.itemsize}").max() < n:
        raise ValueError(f"Y: labels must lie in [0, {n}), got {Y.min()} "
                         f"to {Y.max()}")
    return Y


def label_count(count, n, name):
    """Refuse an object ``name`` over ``count`` labels for ``n``-label
    conditionals."""
    if count != n:
        raise ValueError(f"{name}: {count} labels mean it does not describe "
                         f"the {n}-label conditionals")


def lengths(**sequences):
    """Refuse sequences of unequal lengths, naming the first whose length
    differs from the first's."""
    counts = {name: len(v) for name, v in sequences.items()}
    first = next(iter(counts.values()))
    for name, count in counts.items():
        if count != first:
            raise ValueError(f"{name}: {', '.join(counts)} must have equal "
                             f"lengths, got {list(counts.values())}")


def floats(a, name, copy=False):
    """``a`` as a float64 array of numbers, not bools; a new array with
    ``copy``."""
    try:
        arr = np.array(a) if copy else np.asarray(a)
    except ValueError as exc:
        raise ValueError(f"{name} must hold numbers: {exc}") from None
    if arr.dtype.char != "d":
        if arr.dtype.kind not in "iuf":
            raise ValueError(f"{name} must hold numbers, got {a!r}")
        arr = arr.astype(np.float64)
    return arr


def reals(values, name, interval="(-inf, inf)"):
    """``values`` as a float64 array; its first entry that ``real`` refuses
    raises that refusal."""
    a = floats(values, name)
    lo, hi, lo_open, hi_open, _ = _BOUNDS.get(interval) or _bounds(interval)
    if interval == "(-inf, inf)":
        ok = np.isfinite(a)
    else:
        ok = ((a > lo if lo_open else a >= lo)
              & (a < hi if hi_open else a <= hi))
    if not ok.all():
        real(a[~ok].flat[0], name, interval)
    return a


def scores(s, name="scores"):
    """A finite 1-D score vector with at least 2 entries."""
    s = reals(s, name)
    if s.ndim != 1 or s.shape[0] < 2:
        raise ValueError(f"{name} must be a 1-D array with at least 2 "
                         f"entries")
    return s


def cond_dist(p, n=None):
    """A conditional distribution over ``n`` labels (any count when None),
    nonnegative within 1e-15 and summing to 1 within 1e-12; clipped at 0."""
    p = scores(p, "p")
    if n is not None and p.shape[0] != n:
        raise ValueError(f"p must have one entry per label: expected {n}, "
                         f"got {p.shape[0]}")
    if p.min() < -1e-15:
        raise ValueError(f"p must be nonnegative, got {p}")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ValueError(f"p must sum to 1, got a sum of {p.sum()}")
    return np.maximum(p, 0.0)


def argument(refusal):
    """The argument a refusal names: the word its message begins with."""
    return re.match(r"\w*", str(refusal)).group()


def entry(refusal, k, **lists):
    """The refusal of instance ``k`` of a batch, begun ``<list>[k]: ``;
    ``lists`` maps the argument it names to the list that holds it."""
    return ValueError(f"{lists.get(argument(refusal), 'instances')}[{k}]: "
                      f"{refusal}")


def one(batch, *args):
    """``batch`` on the one instance ``args``; a refusal names the
    instance's argument, not the entry ``<list>[0]`` that held it."""
    try:
        return batch(*([a] for a in args))[0]
    except ValueError as exc:
        raise ValueError(re.sub(r"^\w+\[0\]: ", "", str(exc))) from None
