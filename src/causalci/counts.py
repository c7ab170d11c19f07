"""Streaming occurrence counts over categorical observation streams.

A :class:`Layout` codes a stream's cells by domain index: x and y index
their declared domains, z indexes ``z_values`` (the product of the
z-component domains in lexicographic order), and a row's cell code is
``(x * |Y| + y) * |Z| + z``.  ``Layout.indices`` holds the one domain
check of an observation, and the reads code their arguments alike, so
equal values (``1``, ``1.0``, ``True``; z as a scalar, list or tuple) name
one cell.  ``Layout.reads`` compiles ``(event, given)`` leaves once into
the log keys and tally indices that a table's reads take.

A :class:`CountTable` holds its layout and stores only the (x, y, z)
counts, as one int64 array by cell code read through the layout's
``shape`` (|X|, |Y|, |Z|), and takes the (x, z), x and z counts from it by
index or axis sum on read, so a row-by-row ingest costs O(|Y|·|Z|).  Four
logs track one outcome axis each, keyed ``(given axes, outcome axis)``:
y given (x, z), z given x, and z and x given nothing, the whole stream
being the one condition, code 0, of the last two.  When the count of a
condition reaches a power of two ``2**j``, its log records the stream
position and the condition's outcome tally.  Only this module reads the
logs: :meth:`CountTable.read` answers estimated probabilities as ``(count,
hits)``, over the whole stream or over the first ``dyadic_floor(count)``
occurrences of the condition after any prefix, reading each distinct
condition once (:meth:`CountTable.leaf` is its one-leaf case), and
:meth:`CountTable.leaf_runs` answers many leaves for every run of prefixes
over which none of the logs they read gains a level, as (runs x leaves)
arrays a block of runs at a time: each log's levels at the first run are a
bisection, and every later level, placed at its run by one sorted pass, is
added down the block by one cumulative sum.  A condition logs at most
log2(n) + 1 levels, and the widths of all conditions' tallies sum to
O(cells), so a table holds O(cells * log n) entries, however long the
stream, besides the codes of at most ``_PENDING_ROWS`` pending rows.

:meth:`CountTable.ingest` adds one observation and is the reference path.
:meth:`CountTable.ingest_codes` adds cell codes ``_CHUNK_ROWS`` at a time:
a chunk's ``numpy.bincount`` is added to the counts in place, and a copy
of its codes is kept; that is all ingestion does.  A prefix read (``read``
or ``leaf`` with ``m``, ``leaf_runs``) folds the rows that the patterns
it reads have yet to log into their logs, in stream order, a slice at a
time: a slice's counts are those before it plus its histogram, and only a
slice in which some condition reaches a power of two is decoded, once,
and walked for those conditions.  Whole-stream reads never fold, so a
table that is only counted never walks a row.  ``checkpoints``,
``checkpoint_version``, ``==`` and ``ingest`` fold every pattern first,
as does a chunk that leaves more rows pending than that bound.
:meth:`CountTable.ingest_chunks` hands the codes of text lines over a
chunk at a time and yields after each, and :meth:`CountTable.ingest_lines`
runs it to the end.  Every path builds the table that ``ingest`` builds,
and every read answers as on that table.

Every reader goes through one distinct-record function, ``_distinct``,
which makes the value of each distinct key once and keeps up to
``_LINE_CACHE`` of them: :func:`read_jsonl` keys a row by its line's text
and :func:`read_csv` by a CSV row's mapped cells, so identical records may
yield the same :class:`Observation` object, and ``ingest_lines`` keeps
cell codes, as the bytes of an ``intp``, by either key.  It works a chunk
of lines at a time: one ``map`` over the cache looks the chunk up, and
only a chunk with a miss is walked, from miss to miss.  A categorical
stream has at most |X|·|Y|·|Z| distinct records, so most chunks have no
miss.

Composite z-values are tuples ordered by the declared Z-component order,
and iteration over z patterns always follows the lexicographic order of
the declared domains, so outputs are deterministic.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import sys
from bisect import bisect_left, bisect_right
from itertools import chain, filterfalse, islice, product
from operator import add, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# rows per chunk that CountTable applies at once; bounds what ingest_lines holds
_CHUNK_ROWS = 4096
# distinct records whose values a reader keeps; bounds the memory it holds
_LINE_CACHE = 4096
# tracked patterns, each named by the axes of (x, y, z) that it fixes
_PATTERNS = ('xyz', 'xz', 'x', 'z', '')
# the patterns whose conditions keep a log of dyadic levels, each as (given
# axes, outcome axis): y given (x, z), z given x, and the whole stream's z and x
_LOGGED = (('xz', 'y'), ('x', 'z'), ('', 'z'), ('', 'x'))
# rows whose levels some pattern may have yet to log; past this every
# pattern's levels are logged, which bounds the memory of a stream no prefix
# read ever folds
_PENDING_ROWS = 1 << 16
# a logged level is (stream position at which it was reached, outcome tally)
_position = itemgetter(0)
# (run, leaf) entries in one block of CountTable.leaf_runs; bounds the memory
# of a confidence sequence on a wide table
_BLOCK_ELEMENTS = 1 << 16


class Observation(NamedTuple):
    """One time-step's realized values: treatment, outcome, covariate tuple."""

    x: object
    y: object
    z: tuple


class Runs(NamedTuple):
    """A block of :meth:`CountTable.leaf_runs`: each run's first and last
    prefix, and, one row per run and one column per leaf, every leaf's
    dyadic-prefix count and hits at every prefix of the run."""

    first: np.ndarray
    last: np.ndarray
    count: np.ndarray
    hits: np.ndarray


class ObservationParseError(ValueError):
    """Raised by the stream readers; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def dyadic_floor(n: int) -> int:
    """Largest power of two that is <= n; returns 1 for n < 2."""
    if n < 2:
        return 1
    return 1 << (n.bit_length() - 1)


def _prefix_length(m, n: int) -> int:
    """``m``, of any integral type but bool, as a prefix length of an n-row stream."""
    if isinstance(m, (bool, np.bool_)):  # Python counts True as 1; a prefix does not
        raise ValueError(f"prefix length {bool(m)} is not an integer")
    try:
        m = operator.index(m)
    except TypeError:
        raise ValueError(f"prefix length {m!r} is not an integer") from None
    if not 0 <= m <= n:
        raise ValueError(f"prefix length {m} is not in [0, {n}]")
    return m


def _as_z(z) -> tuple:
    """A z-value as the table codes it: a list as a tuple, a scalar as a 1-tuple."""
    if isinstance(z, tuple):
        return z
    return tuple(z) if isinstance(z, list) else (z,)


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _require_hashable(name: str, value) -> None:
    if not _hashable(value):
        raise ValueError(f"{name} value {value!r} is unhashable, so in no domain")


class Layout:
    """The coding of one stream's cells: the declared domains, checked, and
    per axis its value -> domain index map, read through ``shape``
    (|X|, |Y|, |Z|).  A table reads its leaves as compiled by :meth:`reads`."""

    def __init__(self, x_domain: Sequence, y_domain: Sequence,
                 z_domains: Sequence[Sequence]):
        if not x_domain or not y_domain:
            raise ValueError("x and y domains must be non-empty")
        if not z_domains or any(not d for d in z_domains):
            raise ValueError("every z component needs a non-empty domain")
        self.x_domain = tuple(x_domain)
        self.y_domain = tuple(y_domain)
        self.z_domains = tuple(tuple(d) for d in z_domains)
        # a cell code names one value per coordinate
        for name, dom in (('x', self.x_domain), ('y', self.y_domain),
                          *((f'z[{i}]', d) for i, d in enumerate(self.z_domains))):
            for value in filterfalse(_hashable, dom):
                raise ValueError(f"the {name} domain holds the unhashable value {value!r}")
            if len(set(dom)) != len(dom):
                raise ValueError(f"duplicate values in the {name} domain {dom!r}")
        self.z_values = tuple(product(*self.z_domains))
        # axis -> value -> domain index
        self.index = {axis: {v: i for i, v in enumerate(dom)} for axis, dom
                      in zip('xyz', (self.x_domain, self.y_domain, self.z_values))}
        self.shape = tuple(map(len, self.index.values()))  # (|X|, |Y|, |Z|)

    def indices(self, obs) -> tuple[int, int, int]:
        """The (x, y, z) domain indices of an observation; a ValueError names
        the first of x, y, z[0], ... outside its domain (an unhashable value
        is in none)."""
        x, y, z = obs
        z = _as_z(z)
        try:
            return self.index['x'][x], self.index['y'][y], self.index['z'][z]
        except (KeyError, TypeError):
            pass
        named = [('x', x, self.x_domain), ('y', y, self.y_domain)]
        if len(z) == len(self.z_domains):
            named += [(f'z[{i}]', v, d) for i, (v, d) in enumerate(zip(z, self.z_domains))]
        for name, value, domain in named:
            if not _hashable(value) or value not in set(domain):
                raise ValueError(f"{name} value {value!r} not in declared domain")
        # every value is in its domain, so z has too few or too many coordinates
        raise ValueError(f"z has {len(z)} coordinates, expected {len(self.z_domains)}")

    def require_in_domain(self, **values) -> None:
        """Refuse a query's treatment value ``x`` or outcome value ``y``
        outside its declared domain: no stream could ever estimate it."""
        for name, value in values.items():
            _require_hashable(name, value)
            if value not in self.index[name]:
                raise ValueError(f"query {name} value {value!r} not in declared domain "
                                 f"{list(self.index[name])}")

    def cell_codes(self, x, y, z) -> np.ndarray:
        """The cell codes of rows given by domain index: x and y as arrays,
        z as one array per z component; the arrays broadcast.  Row-major
        by Horner's rule, ``(x * |Y| + y) * |Z| + z`` with z's components
        in the same order."""
        code = x
        for index, size in zip((y, *z), map(len, (self.y_domain, *self.z_domains))):
            code = code * size + index
        return code

    def decode(self, codes) -> list[Observation]:
        """The observation each cell code stands for, in order."""
        return [Observation(self.x_domain[x], self.y_domain[y], self.z_values[z])
                for x, y, z in zip(*(a.tolist() for a in np.unravel_index(codes, self.shape)))]

    def code(self, axes: str, values: dict) -> int | None:
        """The code of the values of some axes, row-major over them; None if
        a value is outside its domain, so names a cell that never occurs."""
        code = 0
        for axis in axes:
            index = self.index[axis]
            value = _as_z(values[axis]) if axis == 'z' else values[axis]
            try:  # an unhashable value is outside the domain too
                code = code * len(index) + index[value]
            except (KeyError, TypeError):
                return None
        return code

    def reads(self, leaves: Sequence[tuple[dict, dict]]) -> tuple[tuple, list, list]:
        """``(event, given)`` leaves compiled for :meth:`CountTable.read` and
        :meth:`CountTable.leaf_runs`: the distinct conditions they read, as
        log keys ``(given axes, outcome axis, code)`` in order of first read
        (the code None for a condition outside the domains, which never
        occurs), and per leaf its condition's place among them and its
        event's index in the condition's tally.  A leaf's pattern, (its
        given axes, its event's axis), must be a logged one, and its event
        value must be in its domain."""
        place: dict[tuple, int] = {}
        slots, index = [], []
        for event, given in leaves:
            pattern = (''.join(sorted(given)), ''.join(sorted(event)))
            if pattern not in _LOGGED:
                raise ValueError(f"leaf {', '.join(sorted(event))} given "
                                 f"({', '.join(sorted(given))}) is not tracked")
            index.append(self.code(pattern[1], event))
            if index[-1] is None:  # an event value with no place in the tallies
                raise ValueError(f"leaf value {event[pattern[1]]!r} not in declared domain")
            slots.append(place.setdefault((*pattern, self.code(pattern[0], given)), len(place)))
        return tuple(place), slots, index


class CountTable:
    """Streaming counts for all tracked value patterns of one stream, whose
    cells a :class:`Layout` codes.

    Tracked patterns, the ones the estimators read: (x,y,z), (x,z), (x),
    (z), and the stream length itself, with dyadic tallies for the
    conditions of the pairs that :meth:`leaf` reads.  Only the (x,y,z)
    counts are stored; the other patterns' counts are summed from them.
    """

    def __init__(self, layout: Layout):
        self.layout = layout
        self.n = 0
        # occurrences of each (x, y, z) cell, by cell code, read through the
        # layout's ``shape``
        self._counts = np.zeros(math.prod(layout.shape), np.int64)
        # condition (given axes, outcome axis, code) -> per-level (position,
        # outcome tally): level j holds the outcome's tally among the first
        # 2**j occurrences of the condition, reached at that stream position
        self._levels: dict[tuple[str, str, int], list[tuple[int, tuple[int, ...]]]] = {}
        # logged pattern -> the stream position up to which its levels are logged
        self._logged = dict.fromkeys(_LOGGED, 0)
        # a copy of the codes of the rows past the smallest of those positions,
        # in the narrowest dtype that holds a cell code
        self._rows = np.zeros(0, np.min_scalar_type(self._counts.size - 1))

    # -- ingestion ---------------------------------------------------------

    def ingest(self, obs) -> None:
        """Add one observation to the stream; validates every coordinate.
        It folds every pending row first, so its levels come after theirs in
        each log, and logs the row's levels at once."""
        x, y, z = self.layout.indices(obs)
        self._fold(_LOGGED)
        counts = self._counts.reshape(self.layout.shape)  # a view: the increment is in place
        counts[x, y, z] += 1
        self.n += 1
        self._logged = dict.fromkeys(_LOGGED, self.n)

        # dyadic checkpoints, materialized after the increment
        for cond, c in ((('xz', 'y', x * self.layout.shape[2] + z), counts[x, :, z].sum()),
                        (('x', 'z', x), counts[x].sum()),
                        (('', 'z', 0), self.n), (('', 'x', 0), self.n)):
            if c & (c - 1) == 0:  # a power of two
                self._levels.setdefault(cond, []).append((self.n, tuple(self._tally(cond))))

    def ingest_lines(self, lines: Iterable[str], columns: dict | None = None) -> None:
        """Add the rows of a JSON-lines stream's text lines (with ``columns``,
        a CSV stream's) as :func:`read_jsonl` (:func:`read_csv`) and
        :meth:`ingest` would, but raise a domain error, too, as an
        :class:`ObservationParseError` naming its line.  On an error the rows
        before it are applied first."""
        for _ in self.ingest_chunks(lines, columns):
            pass

    def ingest_chunks(self, lines: Iterable[str], columns: dict | None = None
                      ) -> Iterator[int]:
        """:meth:`ingest_lines` a chunk of ``_CHUNK_ROWS`` rows at a time,
        yielding ``n`` after each chunk it applies, so a caller can act on
        every chunk before the next one is read.  On an error the rows before
        it are applied and yielded first."""
        parse = _csv_observation if columns else _parse_line
        _, ny, nz = self.layout.shape

        def code(lineno: int, key) -> bytes | None:
            obs = parse(lineno, key)
            if obs is None:
                return None
            try:
                x, y, z = self.layout.indices(obs)
            except ValueError as exc:
                raise ObservationParseError(lineno, str(exc)) from exc
            # as bytes: never falsy, and a chunk's codes join into one array
            return np.intp((x * ny + y) * nz + z).tobytes()

        keys = _csv_cells(lines, columns) if columns else lines
        for chunk in _distinct(keys, code, numbered=bool(columns)):
            self._add_cells(np.frombuffer(b''.join(chunk), np.intp))
            yield self.n

    def ingest_codes(self, codes) -> None:
        """Add rows given as the layout's cell codes (:meth:`Layout.cell_codes`);
        the table ends up as if each row had gone through :meth:`ingest`.
        Refuses the whole array if a code is not an integer in
        [0, |X|·|Y|·|Z|); else applies it ``_CHUNK_ROWS`` rows at a time,
        updating the counts only: the rows' dyadic levels wait for a prefix
        read (:meth:`_add_cells`), and the table keeps a copy of their
        codes, so the caller may reuse the array."""
        codes = np.asarray(codes)
        cells = self._counts.size
        if codes.ndim != 1 or (codes.size and codes.dtype.kind not in 'iu'):
            raise ValueError("cell codes must be a one-dimensional array of integers")
        if codes.size and (codes.min() < 0 or codes.max() >= cells):
            row = np.flatnonzero((codes < 0) | (codes >= cells))[0]
            raise ValueError(f"cell code {codes[row]} at row {row} is not in [0, {cells})")
        for start in range(0, len(codes), _CHUNK_ROWS):
            self._add_cells(codes[start:start + _CHUNK_ROWS])

    def _add_cells(self, cells: np.ndarray) -> None:
        """Add a chunk of valid cell codes to the counts, in place, and to
        ``n``, and keep a copy of them until :meth:`_fold` logs their levels,
        folding every pattern past ``_PENDING_ROWS`` pending rows."""
        self._counts += np.bincount(cells, minlength=self._counts.size)
        self._rows = np.concatenate((self._rows, cells), dtype=self._rows.dtype, casting='unsafe')
        self.n += len(cells)
        if len(self._rows) > _PENDING_ROWS:
            self._fold(_LOGGED)

    def _fold(self, patterns: Iterable[tuple[str, str]]) -> None:
        """Log the levels of the rows that the ``patterns`` have yet to log,
        as :meth:`ingest` logs them row by row, in stream order and in slices
        of at most ``_CHUNK_ROWS`` rows, cut also at each pattern's position.
        The counts before the first slice are the counts less the walked
        rows' histogram, and each slice adds its own; only a slice in which
        some condition reaches a power of two is decoded, once, and walked
        for those conditions.  The rows every pattern has logged are dropped."""
        walk = [p for p in _LOGGED if p in patterns and self._logged[p] < self.n]
        if not walk:
            return
        shape, first = self.layout.shape, self.n - len(self._rows)  # the position of _rows[0]
        start = min(map(self._logged.get, walk))
        after = self._counts - np.bincount(self._rows[start - first:], minlength=self._counts.size)
        cuts = sorted({*range(start, self.n, _CHUNK_ROWS), self.n, *map(self._logged.get, walk)})
        for a, b in zip(cuts, cuts[1:]):
            codes, rows = self._rows[a - first:b - first], None
            counts, after = after, after + np.bincount(codes, minlength=after.size)
            for given, outcome in (p for p in walk if self._logged[p] <= a):
                # each condition's count before the slice and after it
                axes = tuple(i for i, axis in enumerate('xyz') if axis not in given)
                before, total = (c.reshape(shape).sum(axis=axes).ravel() for c in (counts, after))
                crossing = np.flatnonzero((before ^ total) > before).tolist()
                if crossing and rows is None:  # each row's code for every given and outcome axis
                    x, y, z = np.unravel_index(codes, shape)
                    rows = {'xz': x * shape[2] + z, 'x': x, '': np.zeros_like(x), 'y': y, 'z': z}
                if crossing:
                    self._crossings((given, outcome), rows[given], rows[outcome], a, counts,
                                    crossing, before, total - before)
        self._logged.update(dict.fromkeys(walk, self.n))
        self._rows = self._rows[min(self._logged.values()) - first:].copy()

    def _crossings(self, pattern: tuple[str, str], cond: np.ndarray, outcome: np.ndarray,
                   n: int, counts: np.ndarray, crossing: list[int], before: np.ndarray,
                   found: np.ndarray) -> None:
        """Log a level at each row of a slice where the count of a condition of
        ``pattern`` reaches a power of two, as :meth:`ingest` does for one
        row: ``cond`` and ``outcome`` hold the rows' condition codes and
        outcome indices, ``n`` and ``counts`` the stream length and the
        (x, y, z) counts before the slice, ``crossing`` the conditions whose
        count gains a bit, the only ones walked, and ``before`` and ``found``
        each condition's count before the slice and within it."""
        # the rows by condition, in stream order; 16-bit codes sort in linear time
        order = np.argsort(cond.astype(np.uint16) if len(before) <= 1 << 16 else cond,
                           kind='stable')
        outcome = outcome[order]
        width, bounds = len(self.layout.index[pattern[1]]), [0, *np.cumsum(found).tolist()]
        for code in crossing:
            key, a, b = (*pattern, code), bounds[code], bounds[code + 1]
            base, count = self._tally(key, counts), int(before[code])  # before the slice
            t = 1 << count.bit_length()  # the first power of two past count
            while t <= count + b - a:
                p = a + t - count  # the condition's rows up to the one reaching t
                chunk = np.bincount(outcome[a:p], minlength=width).tolist()
                self._levels.setdefault(key, []).append(
                    (n + int(order[p - 1]) + 1, tuple(map(add, chunk, base))))
                t <<= 1

    def _tally(self, cond: tuple[str, str, int], counts: np.ndarray | None = None
               ) -> list[int]:
        """A condition's outcome tally, by index or axis sum of the (x, y, z)
        counts (by default those so far): y given (x, z), z given x, or the
        whole stream's z or x."""
        counts = (self._counts if counts is None else counts).reshape(self.layout.shape)
        given, outcome, code = cond
        if given == 'xz':  # every y
            return counts[code // counts.shape[2], :, code % counts.shape[2]].tolist()
        if given == 'x':  # the (x, z) counts for every z
            return counts[code].sum(axis=0).tolist()
        return counts.sum(axis=tuple(i for i, a in enumerate('xyz') if a != outcome)).tolist()

    # -- reads ---------------------------------------------------------------

    def count(self, x=None, y=None, z=None) -> int:
        """Occurrences of a tracked pattern in the whole stream so far."""
        values = {'x': x, 'y': y, 'z': z}
        axes = ''.join(axis for axis, v in values.items() if v is not None)
        if axes not in _PATTERNS:
            raise ValueError(f"pattern ({', '.join(axes)}) is not tracked")
        # the counts of the pattern's cells, each fixed axis at its value's index
        index = tuple(self.layout.code(axis, values) if axis in axes else slice(None)
                      for axis in 'xyz')
        return 0 if None in index else int(self._counts.reshape(self.layout.shape)[index].sum())

    def leaf(self, event: dict, given: dict, m=None) -> tuple[int, int]:
        """(count, hits) of one estimated probability, P(event | given):
        y given (x, z), z given x, or z or x given nothing.

        With ``m`` None: the condition's count in the whole stream, and how
        many of those occurrences also match the event.  With an integer
        ``m`` in [0, n]: dyadic_floor of the condition's count after the
        first m observations, and the hits among that many first
        occurrences; (0, 0) if the condition has not occurred by then.
        It is the one-leaf case of :meth:`read`.
        """
        count, hits = self.read(self.layout.reads([(event, given)]), m)
        return count[0], hits[0]

    def read(self, reads: tuple, m=None) -> tuple[list[int], list[int]]:
        """The (count, hits) of each leaf of ``reads`` (:meth:`Layout.reads`),
        as :meth:`leaf` gives them, as a list of counts and a list of hits.
        Each distinct condition is read once: its tally summed (``m`` None)
        or its log bisected at the prefix ``m``."""
        conditions, slots, index = reads
        if m is None:  # a condition outside the domains never occurs: no tally
            tallies = [self._tally(cond) if cond[2] is not None else () for cond in conditions]
            counts = list(map(sum, tallies))
            return ([counts[s] for s in slots],
                    [tallies[s][i] if tallies[s] else 0 for s, i in zip(slots, index)])
        m = _prefix_length(m, self.n)
        self._fold({cond[:2] for cond in conditions})
        logs = [self._levels.get(cond, ()) for cond in conditions]
        levels = [bisect_right(log, m, key=_position) for log in logs]
        hits = [logs[s][levels[s] - 1][1][i] if levels[s] else 0 for s, i in zip(slots, index)]
        return [(1 << levels[s]) >> 1 for s in slots], hits

    def leaf_runs(self, reads: tuple, start: int | None = None) -> Iterator[Runs]:
        """The runs of prefixes over which no log the leaves of ``reads`` read
        gains a level, as :class:`Runs` blocks in order: the runs start at
        ``start`` (by default ``min(1, n)``) and at every later position of
        those logs, and the last ends at ``n``.  A block's ``count`` and
        ``hits`` hold ``read(reads, m)`` at every m of each run, so
        consecutive runs differ.  A block holds at most ``_BLOCK_ELEMENTS`` (run, leaf)
        entries, but at least one run.  The runs are the table's as of this
        call."""
        start = min(1, self.n) if start is None else _prefix_length(start, self.n)
        conditions, slots, index = reads
        self._fold({cond[:2] for cond in conditions})
        logs = [self._levels.get(cond, ()) for cond in conditions]
        # each log's levels reached at start; every later level starts a run
        reached = [bisect_right(log, start, key=_position) for log in logs]
        gains = sorted((p, s) for s, log in enumerate(logs) for p, _ in log[reached[s]:])
        starts = sorted({start, *(p for p, _ in gains)})
        run_of = {p: r for r, p in enumerate(starts)}
        gained_run = [run_of[p] for p, _ in gains]  # in order
        runs, logs_gaining = np.array(gained_run, np.intp), np.array([s for _, s in gains], np.intp)
        first = np.array(starts, np.int64)
        last = np.append(first[1:] - 1, self.n)
        # every log's tallies, a row of zeros (level 0) and then level by
        # level: in a log of width w from flat[o], tally i at level j is
        # flat[o + j * w + i]
        width = [len(self.layout.index[outcome]) for _, outcome, _ in conditions]
        flat, offset = [], []
        for w, log in zip(width, logs):
            offset.append(len(flat))
            flat += [0] * w
            for _, tally in log:
                flat += tally
        flat = np.array(flat, np.int64)
        lead = np.array([offset[s] + i for s, i in zip(slots, index)], np.intp)
        step = np.array([width[s] for s in slots], np.intp)
        slots = np.array(slots, np.intp)
        size = max(1, _BLOCK_ELEMENTS // max(1, len(slots)))

        def blocks():
            level = np.array(reached, np.intp)  # per log, the levels reached
            for a in range(0, len(starts), size):
                b = min(a + size, len(starts))
                i, j = bisect_left(gained_run, a), bisect_left(gained_run, b)
                gained = np.zeros((b - a, len(logs)), np.intp)
                gained[runs[i:j] - a, logs_gaining[i:j]] = 1
                levels = np.cumsum(gained, axis=0)
                levels += level
                level = levels[-1]
                levels = levels[:, slots]  # each leaf's log's levels
                yield Runs(first[a:b], last[a:b], (1 << levels) >> 1,
                           flat[lead + levels * step])
        return blocks()

    def checkpoints(self) -> list[int]:
        """Stream positions, in order, at which some dyadic level was
        reached: the rows at which ``checkpoint_version`` advances.  Logs
        every pending level first."""
        self._fold(_LOGGED)
        return sorted({p for levels in self._levels.values() for p, _ in levels})

    @property
    def checkpoint_version(self) -> int:
        """The dyadic levels reached so far, over every condition: a count
        that advances at each row of :meth:`checkpoints`.  Logs every
        pending level first."""
        self._fold(_LOGGED)
        return sum(map(len, self._levels.values()))

    # -- housekeeping ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        if self.n != other.n or not np.array_equal(self._counts, other._counts):
            return False
        self._fold(_LOGGED)
        other._fold(_LOGGED)
        # each axis's value -> index map: equal domains, by value, in one order
        return (self.layout.index, self._levels) == (other.layout.index, other._levels)

    def __repr__(self) -> str:
        return "CountTable(n={}, |X|={}, |Y|={}, |Z|={})".format(self.n, *self.layout.shape)


# -- stream readers ---------------------------------------------------------

def _distinct(keys: Iterable, make, numbered: bool = False) -> Iterator[list]:
    """``make(lineno, key)`` for each key, skipping None (a blank line or a
    header at line 1), in lists of ``_CHUNK_ROWS`` values but the last.  A
    key's line number is its place in ``keys``, or with ``numbered`` the
    keys come as (line number, key) pairs.  A list is yielded as soon as it
    is full, so no line past its last row has been pulled.  The values of up
    to ``_LINE_CACHE`` distinct keys are kept, those that are hashable (so
    immutable), and the same object is given again for an identical key.
    An error, from ``keys`` or ``make``, is raised after a list of the
    values before it.  A value is never falsy, so a chunk without a miss
    is told by ``all``."""
    keys, cache, pulled = iter(keys), {}, 0
    while True:
        chunk, error, ended = [], None, False
        while not (ended or error) and len(chunk) < _CHUNK_ROWS:
            want, batch = _CHUNK_ROWS - len(chunk), []
            try:
                batch.extend(islice(keys, want))  # keeps what it drew if keys raises
            except Exception as exc:
                error = exc
            ended = len(batch) < want
            linenos = range(pulled + 1, pulled + 1 + len(batch))
            if numbered and batch:
                linenos, batch = zip(*batch)
            pulled += len(batch)
            values, failed = _made(cache, make, batch, linenos)
            chunk += values
            error = failed or error  # a refused line comes before the keys' error
        if chunk:
            yield chunk
        if error is not None:
            raise error
        if ended:
            return


def _made(cache: dict, make, keys: Sequence, linenos: Sequence[int]
          ) -> tuple[list, Exception | None]:
    """The values of a batch of keys for :func:`_distinct`, and the error
    of ``make`` that ends them, if any: the batch is looked up in the cache
    at once, and only its misses are walked, in line order."""
    # an empty cache, as for a stream's first batch, has nothing to look up
    values = list(map(cache.get, keys)) if cache else [None] * len(keys)
    if all(values):  # no miss, the common case once the cache is warm
        return values, None
    i = stale = 0
    while True:
        try:
            i = values.index(None, i)
        except ValueError:
            break
        value = cache.get(keys[i])
        if value is not None:  # made at an earlier miss of the batch
            stale += 1
            if stale * 8 >= len(keys) - i:  # such misses are an eighth of the rest
                values[i:] = map(cache.get, keys[i:])
                stale = 0
        else:
            try:
                value = make(linenos[i], keys[i])
            except Exception as exc:
                return list(filter(None, values[:i])), exc
            # the value depends only on the key, except a header skipped at line 1
            if value is not None and len(cache) < _LINE_CACHE and _hashable(value):
                cache[keys[i]] = value
        values[i] = value
        i += 1
    return list(filter(None, values)), None  # no skipped line


def read_jsonl(lines: Iterable[str]) -> Iterator[Observation]:
    """Parse a JSON-lines observation stream.

    Each line is an object with fields x, y, z (z an array).  An optional
    leading header object carrying ``format_version`` is accepted and
    skipped.  Raises :class:`ObservationParseError` with the line number on
    malformed input, including text that is not valid UTF-8.  Each distinct
    line is parsed once (``_distinct``), so identical lines of hashable
    values may yield the same :class:`Observation` object.
    """
    return chain.from_iterable(_distinct(lines, _parse_line))


def _parse_line(lineno: int, text: str) -> Observation | None:
    """The row of one JSON line, or None for a blank line or a header at
    line 1; raises :class:`ObservationParseError` on anything else."""
    if not text.isascii():
        _require_utf8(lineno, text)
    line = text.strip()
    if not line:
        return None
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ObservationParseError(lineno, f"invalid JSON ({exc.msg})") from exc
    if not isinstance(rec, dict):
        raise ObservationParseError(lineno, "expected a JSON object")
    if lineno == 1 and 'format_version' in rec and 'x' not in rec:
        return None
    try:
        x, y, z = rec['x'], rec['y'], rec['z']
    except KeyError as exc:
        raise ObservationParseError(lineno, f"missing field {exc.args[0]!r}") from exc
    if not isinstance(z, list):
        raise ObservationParseError(lineno, "field 'z' must be an array")
    return Observation(x, y, tuple(z))


def _require_utf8(lineno: int, text: str) -> None:
    """Refuse a line holding a byte that is not valid UTF-8.

    Streams are decoded with ``surrogateescape``, which maps each such byte
    to a lone surrogate, so the bad line is found here, where it is parsed,
    rather than by the decoder, which reads ahead in blocks.
    """
    try:
        text.encode('utf-8')
    except UnicodeEncodeError as exc:
        raise ObservationParseError(
            lineno, f"not valid UTF-8 (character {exc.start + 1})") from None


def _utf8_lines(lines: Iterable[str]) -> Iterator[str]:
    """The lines, each checked to be valid UTF-8."""
    for lineno, text in enumerate(lines, start=1):
        if not text.isascii():
            _require_utf8(lineno, text)
        yield text


def read_csv(lines: Iterable[str], columns: dict) -> Iterator[Observation]:
    """Parse a CSV observation stream with a declared column mapping.

    ``columns`` maps 'x' and 'y' to column names and 'z' to a list of
    column names (one per z component).  Cell values are parsed as JSON
    scalars where possible, otherwise kept as strings.  Errors name the
    physical line on which the offending row ends.  Each distinct row of
    mapped cells is parsed once, as :func:`read_jsonl` parses a line.
    """
    return chain.from_iterable(_distinct(_csv_cells(lines, columns), _csv_observation,
                                         numbered=True))


def _csv_cells(lines: Iterable[str], columns: dict) -> Iterator[tuple[int, tuple]]:
    """(line number, mapped cells: x, y, then each z component) per CSV row."""
    reader = csv.DictReader(_utf8_lines(lines))
    zcols = columns['z']
    if isinstance(zcols, str):
        zcols = [zcols]
    wanted = [columns['x'], columns['y'], *zcols]
    for row in reader:
        try:
            cells = tuple([row[c] for c in wanted])
        except KeyError as exc:
            raise ObservationParseError(reader.line_num,
                                        f"missing column {exc.args[0]!r}") from exc
        if None in cells:  # DictReader pads a short row with None
            column = wanted[cells.index(None)]
            raise ObservationParseError(reader.line_num,
                                        f"short row: no cell for column {column!r}")
        yield reader.line_num, cells


def _csv_observation(lineno: int, cells: tuple) -> Observation:
    """The row of a CSV record's mapped cells (``lineno`` goes unused:
    :func:`_csv_cells` raises a row's errors)."""
    x, y, *z = map(parse_scalar, cells)
    return Observation(x, y, tuple(z))


def parse_scalar(token: str):
    """A CSV cell or a command-line value: the JSON value it spells, or
    the string itself when it is not JSON."""
    try:
        return json.loads(token)
    except json.JSONDecodeError:
        return token


def open_lines(path: str, columns: dict | None = None):
    """The text lines of a .jsonl/.csv file path, or '-' for stdin, as a
    file to close in a ``with`` block (standard input itself stays open).
    Text is decoded as UTF-8 with ``surrogateescape``, so a byte that is
    not valid UTF-8 reaches the reader, which refuses it naming its line; a
    byte-order mark is dropped from the start and refused anywhere else."""
    if path.endswith('.csv') and not columns:
        raise ValueError("CSV input needs a column mapping")
    stdin = path == '-'
    return open(sys.stdin.fileno() if stdin else path, 'r', encoding='utf-8-sig',
                errors='surrogateescape', closefd=not stdin)

