"""Integer index sets (lattice polyhedra) for loop nests and recurrences.

An algorithm in the paper's model is indexed by
``I^n = {(i_1..i_n) | l_k^1 <= i_k <= l_k^2}`` — in general a parametric
integer polyhedron such as the dynamic-programming triangle
``{(i, j, k) | 1 <= i, j <= n, i < k < j}``.  :class:`Polyhedron` stores the
affine constraints symbolically (parameters like ``n`` stay symbolic) and
supports containment, emptiness, projection and lattice-point enumeration for
concrete parameter values.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.ir import fourier_motzkin as fm
from repro.ir.affine import AffineExpr, ExprLike, Number
from repro.obs import TRACER


class _CompiledDomain:
    """A polyhedron with concrete parameters, compiled for enumeration.

    All Fourier–Motzkin eliminations run once, here: for each dimension the
    bounds (after projecting out the later dimensions) are frozen into
    integer :class:`~repro.ir.fourier_motzkin.BoundRows`.  Enumeration then
    needs only integer arithmetic per search-tree node — no per-point
    ``AffineExpr.partial`` substitutions and no per-point eliminations — and
    the innermost dimension is emitted as a whole ``[lo, hi]`` block at once.
    """

    __slots__ = ("dims", "levels", "empty")

    def __init__(self, dims: tuple[str, ...],
                 constraints: Sequence[AffineExpr]) -> None:
        self.dims = dims
        self.levels: list[fm.BoundRows] = []
        self.empty = False
        try:
            base = fm.deduplicate(list(constraints))
        except fm.Infeasible:
            self.empty = True
            return
        for depth, name in enumerate(dims):
            later = list(dims[depth + 1:])
            prefix = list(dims[:depth])
            try:
                self.levels.append(
                    fm.compile_bound_rows(base, name, later, prefix))
            except fm.Infeasible:
                self.empty = True
                return

    def blocks(self) -> Iterator[tuple[tuple[int, ...], int, int]]:
        """Yield ``(prefix, lo, hi)`` runs of the innermost dimension, in
        lexicographic order.  Raises ValueError on an unbounded dimension
        (only when the enumeration actually reaches it, matching the
        recursive enumerator this replaces)."""
        if self.empty or not self.dims:
            return
        last = len(self.dims) - 1

        def recurse(depth: int, prefix: tuple[int, ...]
                    ) -> Iterator[tuple[tuple[int, ...], int, int]]:
            lo, hi = self.levels[depth].evaluate(prefix)
            if lo is None or hi is None:
                raise ValueError(
                    f"dimension {self.dims[depth]} is unbounded; "
                    "cannot enumerate")
            if depth == last:
                if lo <= hi:
                    yield prefix, lo, hi
                return
            for value in range(lo, hi + 1):
                yield from recurse(depth + 1, prefix + (value,))

        yield from recurse(0, ())


# Process-wide memoization: synthesis, exploration and the benchmarks all
# re-enumerate the same few domains at the same parameter values over and
# over.  Keys are (dims, constraints, bound params) — fully value-based, so
# distinct Polyhedron instances describing the same set share entries.
_MAX_CACHED_ARRAYS = 1024
_compile_cache: dict[tuple, _CompiledDomain] = {}
_points_cache: dict[tuple, np.ndarray] = {}


def clear_enumeration_caches() -> None:
    """Drop all memoized compiled domains and point arrays."""
    _compile_cache.clear()
    _points_cache.clear()


def ge(lhs: ExprLike, rhs: ExprLike) -> AffineExpr:
    """Constraint ``lhs >= rhs`` as an expression ``>= 0``."""
    return AffineExpr.coerce(lhs) - AffineExpr.coerce(rhs)


def le(lhs: ExprLike, rhs: ExprLike) -> AffineExpr:
    """Constraint ``lhs <= rhs``."""
    return AffineExpr.coerce(rhs) - AffineExpr.coerce(lhs)


def eq(lhs: ExprLike, rhs: ExprLike) -> tuple[AffineExpr, AffineExpr]:
    """Equality as a pair of opposite inequalities."""
    diff = AffineExpr.coerce(lhs) - AffineExpr.coerce(rhs)
    return diff, -diff


class Polyhedron:
    """A parametric integer polyhedron.

    ``dims`` is the ordered tuple of index-variable names (the dimensions of
    the set); ``params`` are symbolic size parameters (e.g. ``n``).  Every
    constraint is an :class:`AffineExpr` over ``dims + params`` interpreted as
    ``>= 0``.
    """

    def __init__(self, dims: Sequence[str],
                 constraints: Iterable[AffineExpr] = (),
                 params: Sequence[str] = ()) -> None:
        self.dims: tuple[str, ...] = tuple(dims)
        self.params: tuple[str, ...] = tuple(params)
        if len(set(self.dims)) != len(self.dims):
            raise ValueError(f"duplicate dimensions in {self.dims}")
        if set(self.dims) & set(self.params):
            raise ValueError("a name cannot be both a dimension and a parameter")
        allowed = set(self.dims) | set(self.params)
        self.constraints: tuple[AffineExpr, ...] = tuple(constraints)
        for e in self.constraints:
            extra = e.variables() - allowed
            if extra:
                raise ValueError(
                    f"constraint {e} mentions unknown names {sorted(extra)}")

    # -- construction -------------------------------------------------------
    @staticmethod
    def box(bounds: Mapping[str, tuple[ExprLike, ExprLike]],
            params: Sequence[str] = ()) -> "Polyhedron":
        """Rectangular (possibly parametric) box: ``{name: (lo, hi)}``."""
        constraints: list[AffineExpr] = []
        for name, (lo, hi) in bounds.items():
            constraints.append(ge(name, lo))
            constraints.append(le(name, hi))
        return Polyhedron(tuple(bounds), constraints, params)

    def with_constraints(self, *extra: AffineExpr) -> "Polyhedron":
        """A copy with additional constraints."""
        flat: list[AffineExpr] = []
        for e in extra:
            if isinstance(e, tuple):
                flat.extend(e)
            else:
                flat.append(e)
        return Polyhedron(self.dims, self.constraints + tuple(flat), self.params)

    # -- queries -------------------------------------------------------------
    def bind_params(self, params: Mapping[str, Number]) -> "Polyhedron":
        """Substitute concrete values for (a subset of) the parameters."""
        remaining = tuple(p for p in self.params if p not in params)
        bound = [e.partial(params) for e in self.constraints]
        return Polyhedron(self.dims, bound, remaining)

    def contains(self, point: Mapping[str, Number] | Sequence[Number],
                 params: Mapping[str, Number] | None = None) -> bool:
        """Integer membership of ``point`` (dict or tuple in dim order)."""
        binding = self._binding(point, params)
        return all(e.evaluate(binding) >= 0 for e in self.constraints)

    def _binding(self, point, params) -> dict[str, Number]:
        if isinstance(point, Mapping):
            binding = dict(point)
        else:
            point = tuple(point)
            if len(point) != len(self.dims):
                raise ValueError(
                    f"point has {len(point)} coordinates, expected {len(self.dims)}")
            binding = dict(zip(self.dims, point))
        if params:
            binding.update(params)
        missing = set(self.params) - set(binding)
        if missing:
            raise KeyError(f"unbound parameters {sorted(missing)}")
        return binding

    def is_empty(self, params: Mapping[str, Number] | None = None) -> bool:
        """Rational emptiness check via Fourier–Motzkin.

        Note: rational emptiness is a sound proxy here — all of the paper's
        index sets are either empty or contain lattice points, and the
        enumeration path is exact regardless.
        """
        constraints = [e.partial(params) for e in self.constraints] if params \
            else list(self.constraints)
        names = list(self.dims) + [p for p in self.params
                                   if not params or p not in params]
        return not fm.is_satisfiable(constraints, names)

    def _cache_key(self, params: Mapping[str, Number] | None) -> tuple:
        relevant = set(self.dims) | set(self.params)
        bound = tuple(sorted(
            (k, v) for k, v in (params or {}).items() if k in relevant))
        return (self.dims, self.constraints, bound)

    def _compiled(self, params: Mapping[str, Number] | None) -> _CompiledDomain:
        unbound = [p for p in self.params if not params or p not in params]
        if unbound:
            raise KeyError(f"unbound parameters {unbound}")
        key = self._cache_key(params)
        compiled = _compile_cache.get(key)
        if compiled is None:
            constraints = [e.partial(params) for e in self.constraints] \
                if params else list(self.constraints)
            compiled = _CompiledDomain(self.dims, constraints)
            _compile_cache[key] = compiled
        return compiled

    def points(self, params: Mapping[str, Number] | None = None
               ) -> Iterator[tuple[int, ...]]:
        """Enumerate all lattice points (in lexicographic dim order)."""
        compiled = self._compiled(params)
        if not self.dims:
            yield ()
            return
        for prefix, lo, hi in compiled.blocks():
            for value in range(lo, hi + 1):
                yield prefix + (value,)

    def points_array(self, params: Mapping[str, Number] | None = None
                     ) -> np.ndarray:
        """All lattice points as a read-only ``(N, len(dims))`` int64 array,
        in the same lexicographic order as :meth:`points`.

        Results are memoized process-wide by (dims, constraints, params), so
        repeated synthesis/exploration over the same domain enumerates once.
        The returned array is shared — treat it as immutable (it is marked
        non-writeable).
        """
        key = self._cache_key(params)
        cached = _points_cache.get(key)
        if cached is not None:
            TRACER.count("points.cache_hit")
            return cached
        TRACER.count("points.cache_miss")
        compiled = self._compiled(params)
        ndim = len(self.dims)
        if ndim == 0:
            arr = np.zeros((1, 0), dtype=np.int64)
        else:
            blocks = []
            for prefix, lo, hi in compiled.blocks():
                block = np.empty((hi - lo + 1, ndim), dtype=np.int64)
                if ndim > 1:
                    block[:, :-1] = prefix
                block[:, -1] = np.arange(lo, hi + 1, dtype=np.int64)
                blocks.append(block)
            arr = (np.concatenate(blocks, axis=0) if blocks
                   else np.zeros((0, ndim), dtype=np.int64))
        arr.setflags(write=False)
        if len(_points_cache) >= _MAX_CACHED_ARRAYS:
            _points_cache.pop(next(iter(_points_cache)))
        _points_cache[key] = arr
        return arr

    def count(self, params: Mapping[str, Number] | None = None) -> int:
        """Number of lattice points."""
        return int(self.points_array(params).shape[0])

    def project(self, keep: Sequence[str]) -> "Polyhedron":
        """Project onto a subset of the dimensions (rational projection)."""
        keep = tuple(keep)
        drop = [d for d in self.dims if d not in keep]
        projected = fm.eliminate_all(list(self.constraints), drop)
        return Polyhedron(keep, projected, self.params)

    def __repr__(self) -> str:
        cons = ", ".join(f"{e} >= 0" for e in self.constraints)
        return f"Polyhedron(dims={list(self.dims)}, params={list(self.params)}, {{{cons}}})"
