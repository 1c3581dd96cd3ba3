"""One-dimensional marginal laws and finite-dimensional tensor measures.

Marginals live on the extended real line: atomic laws may place mass at
``-inf`` or ``+inf``, continuous laws are piecewise-linear CDFs on a finite
interval.  Tensor measures are discrete probability measures on a product
grid, with one axis per index label.  :class:`GridMeasure` is the core they
share with checkerboard copulas: construction checks and axis reduction.
Every value type compares by the equality of its slots (:class:`_Value`).
Everything is immutable after construction and all operations are pure
functions.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CompatibilityError, DomainError, UnsupportedError, ValidationError

NEG_INF = float("-inf")
POS_INF = float("inf")

#: absolute slack allowed when total mass is compared against one
MASS_TOL = 1e-12

ATOMIC = "atomic"
CONTINUOUS = "continuous"


def _real_number(value) -> bool:
    """Whether ``value`` is a real number: a :class:`numbers.Real` that is not a bool."""
    # floats, numpy's float64 among them, skip the ABC test, which is 8 times slower
    return isinstance(value, float) or (isinstance(value, numbers.Real) and type(value) is not bool)


def _as_float(x, what: str) -> float:
    """``x`` as a float; :class:`DomainError` unless it is a real number within the float range."""
    if isinstance(x, float):
        return float(x)
    if not _real_number(x):
        raise DomainError(f"{what} must be a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"{what} lies beyond the float range") from None


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Read-only copy of ``arr`` over ``bytes``: neither it nor a view's ``.base`` can reopen."""
    return np.ndarray(arr.shape, arr.dtype, arr.tobytes())


def _checked_axis(values, what: str, error=ValidationError) -> np.ndarray:
    """:func:`_frozen` 1-d float copy of ``values``: nonempty, free of NaN, strictly increasing.

    ``a[1:] > a[:-1]`` is ``np.diff(a) > 0`` without floating-point warnings; it
    is false at NaN, so repeated infinities fail it too.
    """
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"{what} is not a float array: {exc}") from None
    if arr.ndim != 1 or arr.size < 1:
        raise error(f"{what} must be a nonempty 1-d array, got shape {arr.shape}")
    if np.isnan(arr).any():
        raise error(f"{what} must not be NaN")
    if not (arr[1:] > arr[:-1]).all():
        raise error(f"{what} must be strictly increasing")
    return _frozen(arr)


def _unzipped(pairs, what: str) -> tuple:
    """The two columns of ``pairs``, refusing any entry that is not a pair."""
    try:
        entries = [tuple(pair) for pair in pairs]
    except TypeError:
        entries = None
    if entries is None or any(len(entry) != 2 for entry in entries):
        raise ValidationError(f"every {what} must be an (x, y) pair")
    return [x for x, _ in entries], [y for _, y in entries]


def canonical_labels(labels: Iterable) -> tuple:
    """Return labels as a sorted tuple, rejecting duplicates and unsortable mixes.

    The sorted labels must be strictly increasing.  A NaN, a tuple holding
    one, or two sets neither of which holds the other compare false both
    ways, so ``sorted`` leaves them where they were given; such labels are
    refused.  A lone label is its own order.
    """
    seq = list(labels)
    if not seq:
        raise CompatibilityError("index subset must be nonempty")
    if len(set(seq)) != len(seq):
        raise CompatibilityError(f"duplicate labels in {seq!r}")
    try:
        out = tuple(sorted(seq))
        for a, b in zip(out, out[1:]):
            if not a < b:
                raise CompatibilityError(
                    f"labels {a!r} and {b!r} are not strictly ordered, "
                    f"so {seq!r} has no sorted order"
                )
    except TypeError as exc:
        raise CompatibilityError(f"labels are not mutually orderable: {seq!r}") from exc
    return out


def _canonical_only(labels) -> tuple:
    """``labels`` as a tuple if :func:`canonical_labels` keeps them as given, else refused."""
    labels = tuple(labels)
    try:
        if canonical_labels(labels) == labels:
            return labels
    except CompatibilityError as exc:
        raise ValidationError(str(exc)) from None
    raise ValidationError(f"labels must be strictly increasing, got {labels!r}")


def _refrozen(value):
    """``value``, each array in it or in a tuple of it replaced by its :func:`_frozen` copy."""
    if isinstance(value, tuple):
        return tuple(map(_refrozen, value))
    return _frozen(value) if isinstance(value, np.ndarray) else value


class _Immutable:
    """Refuses attribute assignment and deletion; only the slot writers below write slots.

    A type records its slots' own member-descriptor setters in
    ``_slot_setters``; like ``object.__setattr__`` they pass the refusing
    ``__setattr__`` by, without a lookup by name.  :meth:`_of` and
    :meth:`_fill` write one instance through them, :meth:`_batch` many.
    ``copy`` and ``pickle`` hand the slots over as ``(None, {slot: value})``;
    ``__setstate__`` refills them, with :func:`_frozen` copies of their arrays.
    Types built only by factories refuse ``__init__``; their factories go through :meth:`_of`.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # every slot of the hierarchy, base classes first: the order of _of's values
        slots = [
            (name, vars(klass)[name])
            for klass in reversed(cls.__mro__)
            for name in vars(klass).get("__slots__", ())
        ]
        cls._slot_names = tuple(name for name, _ in slots)
        cls._slot_setters = tuple(member.__set__ for _, member in slots)

    @classmethod
    def _of(cls, *values):
        """An instance holding ``values`` in slot order, built without ``__init__``.

        Slots are ordered base classes first, so ``CheckerboardCopula._of``
        takes ``labels``, ``mass`` and then ``order``.
        """
        self = object.__new__(cls)
        # _fill's loop, inlined: most instances are built here, and the call costs a fifth
        for set_slot, value in zip(cls._slot_setters, values):
            set_slot(self, value)
        return self

    @classmethod
    def _batch(cls, count: int, *columns) -> list:
        """``count`` instances built without ``__init__``, instance ``i`` holding
        ``columns[s][i]`` in slot ``s``, the slot order of :meth:`_of`.

        A column is any iterable of at least ``count`` values, such as an
        ``itertools.repeat`` of one value; each slot is written in one pass
        of ``map`` over its setter.
        """
        items = list(map(object.__new__, itertools.repeat(cls, count)))
        for set_slot, column in zip(cls._slot_setters, columns):
            any(map(set_slot, items, column))  # each setter returns None
        return items

    def _fill(self, *values):
        """Write ``values`` into the slots, in the slot order of :meth:`_of`."""
        for set_slot, value in zip(self._slot_setters, values):
            set_slot(self, value)

    def __setstate__(self, state):
        self._fill(*(_refrozen(state[1][name]) for name in self._slot_names))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")


def _same(a, b) -> bool:
    """Slot equality: arrays by ``np.array_equal``, tuples entrywise, else ``is`` or ``==``."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a is b or a == b


class _Value(_Immutable):
    """An immutable value, equal to one of its type whose slots are :func:`_same`; unhashable."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(_same(getattr(self, name), getattr(other, name)) for name in self._slot_names)

    __hash__ = None


class Marginal(_Value):
    """A one-dimensional probability law with CDF and quantile evaluation.

    Use :meth:`atomic` for a purely discrete law given by weighted atoms, or
    :meth:`continuous` for a strictly increasing piecewise-linear CDF given by
    knots ``(x, F(x))`` with ``F = 0`` at the first knot and ``F = 1`` at the
    last.  Atoms may sit at ``-inf`` or ``+inf``; knots span a finite interval.
    Both kinds keep the CDF ``fs`` at their support points ``xs`` (atomic laws
    also their weights ``ws``); between two points it is a step or a line.
    Attributes are set once; assigning or deleting one raises AttributeError.
    """

    __slots__ = ("kind", "xs", "ws", "fs")

    def __init__(self, *args, **kwargs):
        raise TypeError("use Marginal.atomic(...) or Marginal.continuous(...)")

    @classmethod
    def atomic(cls, atoms: Sequence[tuple]) -> "Marginal":
        """Build an atomic marginal from ``(position, weight)`` pairs.

        Positions must be strictly increasing (``-inf``/``+inf`` allowed),
        weights nonnegative with total one up to :data:`MASS_TOL`.
        """
        positions, weights = _unzipped(atoms, "atom")
        xs = _checked_axis(positions, "atom positions")
        ws = checked_mass(weights, xs.shape)
        # The clipped cumulative with a forced endpoint of exactly 1.0 is what
        # makes quantile/cdf an exact adjoint pair in float arithmetic.
        fs = np.minimum(np.cumsum(ws), 1.0)
        fs[-1] = 1.0
        return cls._of(ATOMIC, xs, ws, _frozen(fs))

    @classmethod
    def continuous(cls, knots: Sequence[tuple]) -> "Marginal":
        """Build a continuous marginal from CDF knots ``(x, F)``."""
        positions, levels = _unzipped(knots, "knot")
        if len(positions) < 2:
            raise ValidationError("continuous marginal needs at least two knots")
        xs = _checked_axis(positions, "knot positions")
        fs = _checked_axis(levels, "CDF values")
        # a finite span bounds every knot and every gap; Python floats overflow quietly
        if not math.isfinite(float(xs[-1]) - float(xs[0])):
            raise ValidationError("knot positions must span a finite interval")
        if fs[0] != 0.0 or fs[-1] != 1.0:
            raise ValidationError("CDF must start at exactly 0 and end at exactly 1")
        return cls._of(CONTINUOUS, xs, None, fs)

    def __repr__(self):
        return f"Marginal({self.kind}, {len(self.xs)} points)"


def cdf_eval(m: Marginal, x: float) -> float:
    """Evaluate ``F(x)``, the mass of the closed lower ray up to ``x``.

    Right-continuous in ``x``; ``F(+inf) = 1`` exactly.  The search and the
    interpolation read the tables through memoryviews, as Python floats, in
    the same operation order: the index ``searchsorted`` finds and the bits
    numpy scalars give, at a lower cost per call.
    """
    x = _as_float(x, "cdf argument")
    if math.isnan(x):
        raise DomainError("cdf argument must not be NaN")
    xs, fs = m.xs.data, m.fs.data
    i = bisect.bisect_right(xs, x)
    if i == 0:
        return 0.0
    if m.kind == ATOMIC or i == len(xs):
        return fs[i - 1]
    x_lo, x_hi, f_lo, f_hi = xs[i - 1], xs[i], fs[i - 1], fs[i]
    raw = f_lo + (x - x_lo) * (f_hi - f_lo) / (x_hi - x_lo)
    # clamping keeps the float CDF monotone across knot boundaries
    return min(max(raw, f_lo), f_hi)


def quantile(m: Marginal, u: float) -> float:
    """Generalized inverse ``inf { x : F(x) >= u }`` on the extended line.

    ``quantile(m, 0)`` returns the smallest support point (first atom or first
    knot) rather than ``-inf``.  For continuous marginals the result is the
    smallest float whose CDF reaches ``u``, so ``quantile(u) <= x`` holds if
    and only if ``u <= cdf_eval(x)`` for every ``u`` in ``(0, 1]``, with no
    floating-point exceptions.
    """
    u = _as_float(u, "quantile level")
    if math.isnan(u) or u < 0.0 or u > 1.0:
        raise DomainError(f"quantile level {u!r} outside [0, 1]")
    xs, fs = m.xs, m.fs
    if u == 0.0:
        return xs.item(0)
    k = int(fs.searchsorted(u, side="left"))
    if m.kind == ATOMIC:
        return xs.item(k)
    # fs[0] == 0 < u <= 1 == fs[-1], so 1 <= k <= len(fs) - 1
    lo, hi, f_lo, f_hi = xs.item(k - 1), xs.item(k), fs.item(k - 1), fs.item(k)
    y = lo + (u - f_lo) * (hi - lo) / (f_hi - f_lo)
    y = min(max(y, lo), hi)
    return _smallest_reaching(m, u, lo, y, hi)


def _smallest_reaching(m: Marginal, u: float, lo: float, y: float, hi: float) -> float:
    # Invariant: F(lo) < u <= F(hi); walk from the interpolated candidate,
    # falling back to bisection when the local walk does not settle.
    if cdf_eval(m, y) >= u:
        for _ in range(64):
            y2 = math.nextafter(y, lo)
            if y2 < lo or cdf_eval(m, y2) < u:
                return y
            y = y2
        lo_b, hi_b = lo, y
    else:
        for _ in range(64):
            y = math.nextafter(y, hi)
            if cdf_eval(m, y) >= u:
                return y
        lo_b, hi_b = y, hi
    while True:
        mid = 0.5 * (lo_b + hi_b)
        if not (lo_b < mid < hi_b):
            return hi_b
        if cdf_eval(m, mid) >= u:
            hi_b = mid
        else:
            lo_b = mid


def checked_mass(mass, shape: tuple) -> np.ndarray:
    """:func:`_frozen` copy of ``mass``, checked for shape, sign, finiteness and total one."""
    try:
        arr = np.asarray(mass, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"mass is not a float array: {exc}") from None
    if arr.shape != shape:
        raise ValidationError(f"mass shape {arr.shape} does not match {shape}")
    return _frozen_mass(arr)


def _frozen_mass(arr: np.ndarray, axes=None) -> np.ndarray:
    """:func:`_frozen` copy of ``arr``, refused unless its entries are finite and nonnegative
    and each total over ``axes`` (all axes by default) is within :data:`MASS_TOL` of one.
    """
    # NaN, -inf and negative entries fail the minimum; past it (summing first warns
    # at inf - inf), no total is NaN and only +inf entries or an overflow make one infinite
    if not arr.min() >= 0.0:
        raise ValidationError("masses must be finite and nonnegative")
    totals = arr.sum(axis=axes)
    worst = totals.item(abs(totals - 1.0).argmax())
    if math.isinf(worst) and not np.isfinite(arr).all():
        raise ValidationError("masses must be finite and nonnegative")
    if abs(worst - 1.0) > MASS_TOL:
        raise ValidationError(f"total mass is {worst!r}, expected 1")
    return _frozen(arr)


class GridMeasure(_Value):
    """Core of every discrete measure here: labels, a grid, and a mass tensor.

    Subclasses store canonical ``labels`` (see :func:`canonical_labels`; axis ``i``
    belongs to label ``i``) and ``mass`` (built by :func:`checked_mass`) and provide
    ``grid``, one strictly increasing axis of node positions per label.  Equality
    compares the slots (:class:`_Value`); a copula's order stands for its grid.
    Attributes are set once, in ``__init__``; assigning or deleting one later
    raises :class:`AttributeError`.
    """

    __slots__ = ("labels", "mass")

    @property
    def ndim(self) -> int:
        return len(self.labels)


def sum_out(m: GridMeasure, labels: Iterable) -> tuple:
    """Canonical ``labels`` and the mass of ``m`` with every other axis summed out.

    Dropped axes are summed one at a time from the highest label down, so
    projecting in one step or through any label-descending chain of
    intermediate subsets produces bitwise-identical tensors.
    """
    target = canonical_labels(labels)
    if not set(target) <= set(m.labels):
        raise CompatibilityError(f"{target!r} is not a subset of {m.labels!r}")
    mass = m.mass
    for i in reversed(range(len(m.labels))):
        if m.labels[i] not in target:
            mass = mass.sum(axis=i)
    return target, mass


class TensorMeasure(GridMeasure):
    """A discrete probability measure on a product grid.

    ``labels`` is the index subset in canonical order (unsorted labels are
    refused), ``grid`` a per-axis tuple of strictly increasing cut points on
    the extended line, and ``mass`` a nonnegative tensor with one entry per
    grid node whose total is one up to :data:`MASS_TOL`.
    """

    __slots__ = ("grid",)

    def __init__(self, labels, grid, mass):
        labels = _canonical_only(labels)
        grid = tuple(grid)
        if len(grid) != len(labels):
            raise CompatibilityError("grid must provide one axis per label")
        axes = tuple(_checked_axis(pts, f"axis {lab!r} grid") for lab, pts in zip(labels, grid))
        self._fill(labels, checked_mass(mass, tuple(a.size for a in axes)), axes)

    def __repr__(self):
        return f"TensorMeasure(labels={self.labels!r}, shape={self.mass.shape})"


def marginalize_tensor(t: TensorMeasure, labels: Iterable) -> TensorMeasure:
    """Project onto the axes in ``labels`` by summing out everything else.

    Axes are dropped in the order of :func:`sum_out`.  The canonical labels
    and the frozen grid axes are those of ``t``, so only the mass is checked.
    """
    target, mass = sum_out(t, labels)
    grid = tuple(t.grid[t.labels.index(lab)] for lab in target)
    return TensorMeasure._of(target, _frozen_mass(mass), grid)


def pushforward_tensor(t: TensorMeasure, maps: Mapping) -> TensorMeasure:
    """Push the measure through per-axis maps given as value tables.

    ``maps`` assigns to each label a mapping defined on every grid point of
    that axis.  Mass of a node moves to the node of coordinatewise images;
    coinciding images accumulate.  Total mass is preserved.  A map value that
    is not a real number within the float range raises :class:`DomainError`.
    """
    images = []
    for lab, axis in zip(t.labels, t.grid):
        try:
            table = maps[lab]
        except (KeyError, TypeError, IndexError):
            raise DomainError(f"no map supplied for axis {lab!r}") from None
        img = []
        for x in axis.tolist():
            try:
                value = table[x]
            except (KeyError, TypeError, IndexError):
                raise DomainError(f"map for axis {lab!r} missing grid point {x!r}") from None
            img.append(_as_float(value, f"map for axis {lab!r} at {x!r}"))
        images.append(np.asarray(img))
    new_grid, index_arrays = zip(*(np.unique(img, return_inverse=True) for img in images))
    out = np.zeros(tuple(a.size for a in new_grid))
    mesh = np.meshgrid(*index_arrays, indexing="ij")
    np.add.at(out, tuple(mesh), t.mass)
    return TensorMeasure(t.labels, new_grid, out)


def cdf_eval_tensor(t: TensorMeasure, point: Sequence[float]) -> float:
    """Mass of the product of closed lower rays up to ``point``.

    Every coordinate is read, and refused if it is not a real number or is
    NaN, also after one that lies below its axis.
    """
    if len(point) != t.ndim:
        raise CompatibilityError(
            f"point has {len(point)} coordinates, measure has {t.ndim} axes"
        )
    below = []
    for x, axis in zip(point, t.grid):
        x = _as_float(x, "cdf argument")
        if math.isnan(x):
            raise DomainError("cdf argument must not be NaN")
        below.append(slice(bisect.bisect_right(axis.data, x)))
    return _mass_below(t.mass, below)


def _mass_below(mass: np.ndarray, below: list) -> float:
    """Total of ``mass[:e_0, :e_1, ...]``, ``below`` holding ``slice(e_i)``; an end of 0 gives 0.0.

    The slice's own sum fixes the bits: any other order of accumulation,
    such as a running prefix sum, rounds differently.  ``np.add.reduce(s,
    None)`` is the reduction ``s.sum()`` calls, without its Python wrapper.
    """
    return float(np.add.reduce(mass[tuple(below)], None))


def atomize(m: Marginal, label) -> TensorMeasure:
    """Represent an atomic marginal as a one-axis tensor measure."""
    if m.kind != ATOMIC:
        raise UnsupportedError("only atomic marginals have an exact atomization")
    return TensorMeasure((label,), (m.xs,), m.ws)
