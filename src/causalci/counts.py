"""Streaming occurrence counts over categorical observation streams.

A :class:`CountTable` names every cell by domain index: x and y index
their declared domains, z indexes ``z_values`` (the product of the
z-component domains in lexicographic order), and a row's cell code is
``(x * |Y| + y) * |Z| + z``.  ``CountTable._indices`` holds the one domain
check of an observation, and the reads code their arguments alike, so
equal values (``1``, ``1.0``, ``True``; z as a scalar, list or tuple) name
one cell.

The table stores only the (x, y, z) counts, by cell code, and sums the
(x, z), x and z counts from them on read, so a row-by-row ingest costs
O(|Y|·|Z|).  When the count of a condition the estimators read ((x, z),
x, or the whole stream as the empty pattern's one condition ``('', 0)``)
reaches a power of two ``2**j``, a log keyed by the condition's pattern
and code records the stream position and the condition's outcome tally.
Only this module reads the log: :meth:`CountTable.read` answers estimated
probabilities as ``(count, hits)``, over the whole stream or over the
first ``dyadic_floor(count)`` occurrences of the condition after any
prefix, reading each distinct condition once (:meth:`CountTable.leaf` is
its one-leaf case), and :meth:`CountTable.leaf_runs` answers many leaves
for every run of prefixes over which none of the logs they read gains a
level, as (runs x leaves) arrays a block of runs at a time: each log's
levels at the first run are a bisection, and every later level, placed at
its run by one sorted pass, is added down the block by one cumulative
sum.  A table holds O(cells + conditions * log n) entries, however long
the stream.

:meth:`CountTable.ingest` adds one observation and is the reference path.
:meth:`CountTable.ingest_codes` adds cell codes ``_CHUNK_ROWS`` at a time:
one ``numpy.bincount`` gives a chunk's (x, y, z) histogram, from which
each condition's count before the chunk and within it are summed, and
only for a pattern where some condition reaches a power of two in the
chunk are the rows decoded and that condition's rows walked to log its
levels.  :meth:`CountTable.ingest_chunks` hands the codes of text lines
over a chunk at a time and yields after each, and
:meth:`CountTable.ingest_lines` runs it to the end.  Every path builds the
table that ``ingest`` builds.

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
from itertools import chain, islice, product
from operator import add, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# rows per chunk that CountTable applies at once; bounds what ingest_lines holds
_CHUNK_ROWS = 4096
# distinct records whose values a reader keeps; bounds the memory it holds
_LINE_CACHE = 4096
# tracked patterns, each named by the axes of (x, y, z) that it fixes
_PATTERNS = ('xyz', 'xz', 'x', 'z')
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


class CountTable:
    """Streaming counts for all tracked value patterns of one stream.

    Tracked patterns, the ones the estimators read: (x,y,z), (x,z), (x),
    (z), and the stream length itself, with dyadic tallies for the
    conditions of the pairs that :meth:`leaf` reads.  Only the (x,y,z)
    counts are stored; the other patterns' counts are summed from them.
    """

    def __init__(self, x_domain: Sequence, y_domain: Sequence,
                 z_domains: Sequence[Sequence]):
        if not x_domain or not y_domain:
            raise ValueError("x and y domains must be non-empty")
        if not z_domains or any(not d for d in z_domains):
            raise ValueError("every z component needs a non-empty domain")
        self.x_domain = tuple(x_domain)
        self.y_domain = tuple(y_domain)
        self.z_domains = tuple(tuple(d) for d in z_domains)
        self.z_values = tuple(product(*self.z_domains))
        # a cell code names one value per coordinate
        for name, dom in (('x', self.x_domain), ('y', self.y_domain),
                          *((f'z[{i}]', d) for i, d in enumerate(self.z_domains))):
            if len(set(dom)) != len(dom):
                raise ValueError(f"duplicate values in the {name} domain {dom!r}")
        # axis -> value -> domain index
        self._index = {axis: {v: i for i, v in enumerate(dom)} for axis, dom
                       in zip('xyz', (self.x_domain, self.y_domain, self.z_values))}

        self.n = 0
        # occurrences of each (x, y, z) cell, by cell code
        self._counts = [0] * math.prod(map(len, self._index.values()))
        # condition (pattern, cell code), the whole stream being ('', 0) ->
        # per-level (position, outcome tally): level j holds the tallies among
        # the first 2**j occurrences of the condition, reached at that stream
        # position.  The outcomes are y given (x, z), z given x, and z then x.
        self._levels: dict[tuple[str, int], list[tuple[int, tuple[int, ...]]]] = {}
        self.checkpoint_version = 0

    # -- ingestion ---------------------------------------------------------

    def _indices(self, obs) -> tuple[int, int, int]:
        """The (x, y, z) domain indices of an observation; a ValueError names
        the first of x, y, z[0], ... outside its domain (an unhashable value
        is in none)."""
        x, y, z = obs
        z = _as_z(z)
        try:
            return self._index['x'][x], self._index['y'][y], self._index['z'][z]
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

    def ingest(self, obs) -> None:
        """Add one observation to the stream; validates every coordinate."""
        x, y, z = self._indices(obs)
        nz = len(self.z_values)
        block = len(self.y_domain) * nz  # the cells of one x
        counts = self._counts
        counts[x * block + y * nz + z] += 1
        self.n += 1

        # dyadic checkpoints, materialized after the increment
        base = x * block
        for cond, c in ((('xz', x * nz + z), sum(counts[base + z:base + block:nz])),
                        (('x', x), sum(counts[base:base + block])), (('', 0), self.n)):
            if c & (c - 1) == 0:  # a power of two
                self._levels.setdefault(cond, []).append((self.n, tuple(self._tally(cond))))
                self.checkpoint_version += 1

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
        ny, nz = len(self.y_domain), len(self.z_values)

        def code(lineno: int, key) -> bytes | None:
            obs = parse(lineno, key)
            if obs is None:
                return None
            try:
                x, y, z = self._indices(obs)
            except ValueError as exc:
                raise ObservationParseError(lineno, str(exc)) from exc
            # as bytes: never falsy, and a chunk's codes join into one array
            return np.intp((x * ny + y) * nz + z).tobytes()

        keys = _csv_cells(lines, columns) if columns else lines
        for chunk in _distinct(keys, code, numbered=bool(columns)):
            self._add_cells(np.frombuffer(b''.join(chunk), np.intp))
            yield self.n

    def ingest_codes(self, codes) -> None:
        """Add rows given as cell codes ``(x * |Y| + y) * |Z| + z``, where x
        and y index the treatment and outcome domains and z indexes
        ``z_values``; the table ends up as if each row had gone through
        :meth:`ingest`.  Refuses the whole array if a code is not an
        integer in [0, |X|·|Y|·|Z|); else applies it ``_CHUNK_ROWS`` rows
        at a time."""
        codes = np.asarray(codes)
        cells = len(self._counts)
        if codes.ndim != 1 or (codes.size and codes.dtype.kind not in 'iu'):
            raise ValueError("cell codes must be a one-dimensional array of integers")
        if codes.size and (codes.min() < 0 or codes.max() >= cells):
            row = np.flatnonzero((codes < 0) | (codes >= cells))[0]
            raise ValueError(f"cell code {codes[row]} at row {row} is not in [0, {cells})")
        for start in range(0, len(codes), _CHUNK_ROWS):
            self._add_cells(codes[start:start + _CHUNK_ROWS])

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
        dims = (len(self.x_domain), len(self.y_domain), len(self.z_values))
        x_dom, y_dom, z_values = self.x_domain, self.y_domain, self.z_values
        return [Observation(x_dom[x], y_dom[y], z_values[z])
                for x, y, z in zip(*(a.tolist() for a in np.unravel_index(codes, dims)))]

    def _add_cells(self, cells: np.ndarray) -> None:
        """Apply a chunk of valid cell codes, exactly as if each row had gone
        through :meth:`ingest`."""
        m = len(cells)
        if not m:
            return
        nx, ny, nz = map(len, self._index.values())
        # the (x, y, z) counts before the chunk and within it
        held = np.array(self._counts).reshape(nx, ny, nz)
        found = np.bincount(cells, minlength=held.size).reshape(nx, ny, nz)

        # checkpoints first: they read the counts as they stood before the chunk
        rows = None  # each row's (x, y, z), decoded for the first condition that gains a bit
        for tag, before, added in (
                ('xz', held.sum(axis=1).ravel(), found.sum(axis=1).ravel()),
                ('x', held.sum(axis=(1, 2)), found.sum(axis=(1, 2))),
                ('', np.array([self.n]), np.array([m]))):
            crossing = np.flatnonzero((before ^ (before + added)) > before).tolist()
            if not crossing:
                continue
            if rows is None:
                xy, z = np.divmod(cells.astype(np.intp), nz)
                x, y = np.divmod(xy, ny)
                rows = {'xz': (x * nz + z, ((y, ny),)), 'x': (x, ((z, nz),)),
                        '': (np.zeros_like(x), ((z, nz), (x, nx)))}
            self._crossings(tag, *rows[tag], before, added, crossing)

        self._counts = (held + found).ravel().tolist()
        self.n += m

    def _crossings(self, tag: str, cond: np.ndarray, outcomes: tuple, before: np.ndarray,
                   found: np.ndarray, crossing: list[int]) -> None:
        """Log a level at each row of a chunk where the count of a condition of
        pattern ``tag`` reaches a power of two, as :meth:`ingest` does for one
        row: ``cond`` holds the rows' condition codes, ``outcomes`` the tally's
        parts as (rows' codes, size), ``before`` and ``found`` each condition's
        count before the chunk and within it, and ``crossing`` the conditions
        whose count gains a bit, the only ones walked."""
        # the rows by condition, in stream order; 16-bit codes sort in linear time
        order = np.argsort(cond.astype(np.uint16) if len(before) <= 1 << 16 else cond,
                           kind='stable')
        # each row's outcome codes side by side, offset into one tally
        k, sizes = len(outcomes), [size for _, size in outcomes]
        codes = np.stack([col[order] + sum(sizes[:j]) for j, (col, _) in enumerate(outcomes)],
                         axis=1).ravel()
        width, bounds = sum(sizes), [0, *np.cumsum(found).tolist()]
        for code in crossing:
            key, a, b = (tag, code), bounds[code], bounds[code + 1]
            base, count = self._tally(key), int(before[code])  # the tally before the chunk
            t = 1 << count.bit_length()  # the first power of two past count
            while t <= count + b - a:
                p = a + t - count  # the condition's rows up to the one reaching t
                chunk = np.bincount(codes[a * k:p * k], minlength=width).tolist()
                self._levels.setdefault(key, []).append(
                    (self.n + int(order[p - 1]) + 1, tuple(map(add, chunk, base))))
                self.checkpoint_version += 1
                t <<= 1

    def _tally(self, cond: tuple[str, int]) -> list[int]:
        """A condition's outcome tally so far, summed from the (x, y, z)
        counts: y given (x, z), z given x, or the whole stream's z then x."""
        counts, nz = self._counts, len(self.z_values)
        block = len(self.y_domain) * nz  # the cells of one x
        tag, code = cond
        if not tag:  # the whole stream: the z counts, then the x counts
            return ([sum(counts[z::nz]) for z in range(nz)]
                    + [sum(counts[b:b + block]) for b in range(0, len(counts), block)])
        if tag == 'x':  # the (x, z) counts for every z
            b = code * block
            return [sum(counts[b + z:b + block:nz]) for z in range(nz)]
        x, z = divmod(code, nz)  # the cells (x, y, z) for every y, |Z| apart
        return counts[x * block + z:(x + 1) * block:nz]

    # -- reads ---------------------------------------------------------------

    def _code(self, tag: str, values: dict) -> int | None:
        """The cell code of a pattern's values, row-major over its axes;
        None if a value is outside its domain, a cell that never occurs."""
        code = 0
        for axis in tag:
            index = self._index[axis]
            value = _as_z(values[axis]) if axis == 'z' else values[axis]
            try:  # an unhashable value is outside the domain too
                code = code * len(index) + index[value]
            except (KeyError, TypeError):
                return None
        return code

    def count(self, x=None, y=None, z=None) -> int:
        """Occurrences of a tracked pattern in the whole stream so far."""
        values = {'x': x, 'y': y, 'z': z}
        tag = ''.join(axis for axis, v in values.items() if v is not None)
        if not tag:
            return self.n
        if tag not in _PATTERNS:
            raise ValueError(f"pattern ({', '.join(tag)}) is not tracked")
        code = self._code(tag, values)
        if code is None or tag == 'xyz':
            return 0 if code is None else self._counts[code]
        return self._tally(('', 0))[code] if tag == 'z' else sum(self._tally((tag, code)))

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
        count, hits = self.read([(event, given)], m)
        return count[0], hits[0]

    def read(self, leaves: Sequence[tuple[dict, dict]], m=None
             ) -> tuple[list[int], list[int]]:
        """The (count, hits) of each ``(event, given)`` leaf, as :meth:`leaf`
        gives them, as a list of counts and a list of hits.  Each distinct
        condition is read once: its tally summed (``m`` None) or its log
        bisected at the prefix ``m``."""
        conditions, slots, index = self._conditions(leaves)
        if m is None:  # a condition outside the domains never occurs: no tally
            tallies = [self._tally(cond) if cond[1] is not None else () for cond in conditions]
            counts = [sum(tally) if tag else self.n
                      for (tag, _), tally in zip(conditions, tallies)]
            return ([counts[s] for s in slots],
                    [tallies[s][i] if tallies[s] else 0 for s, i in zip(slots, index)])
        m = _prefix_length(m, self.n)
        logs = [self._levels.get(cond, ()) for cond in conditions]
        levels = [bisect_right(log, m, key=_position) for log in logs]
        hits = [logs[s][levels[s] - 1][1][i] if levels[s] else 0 for s, i in zip(slots, index)]
        return [(1 << levels[s]) >> 1 for s in slots], hits

    def leaf_runs(self, leaves: Sequence[tuple[dict, dict]], start: int | None = None
                  ) -> Iterator[Runs]:
        """The runs of prefixes over which no log the leaves read gains a
        level, as :class:`Runs` blocks in order: the runs start at ``start``
        (by default ``min(1, n)``) and at every later position of those
        logs, and the last ends at ``n``.  A block's ``count`` and ``hits``
        hold ``read(leaves, m)`` at every m of each run, so consecutive runs
        differ.  A block holds at most ``_BLOCK_ELEMENTS`` (run, leaf)
        entries, but at least one run.  The runs are the table's as of this
        call."""
        start = min(1, self.n) if start is None else _prefix_length(start, self.n)
        conditions, slots, index = self._conditions(leaves)
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
        # every log's tallies, a row of zeros (level 0) and then level by level,
        # after one 0 that a leaf of a log with no level reads: in a log of
        # width w from flat[o], tally i at level j is flat[o + j * w + i]
        width = [len(log[0][1]) if log else 0 for log in logs]
        flat, offset = [0], []
        for w, log in zip(width, logs):
            offset.append(len(flat))
            flat += [0] * w
            for _, tally in log:
                flat += tally
        flat = np.array(flat, np.int64)
        lead = np.array([offset[s] + i if width[s] else 0 for s, i in zip(slots, index)], np.intp)
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

    def _conditions(self, leaves: Sequence[tuple[dict, dict]]
                    ) -> tuple[list[tuple], list[int], list[int]]:
        """The distinct conditions the leaves read, in order of first read,
        and per leaf its condition's place among them and its event's index
        in the condition's tally."""
        located = [self._locate(event, given) for event, given in leaves]
        place: dict[tuple, int] = {}
        slots = [place.setdefault(cond, len(place)) for cond, _ in located]
        return list(place), slots, [i for _, i in located]

    def _locate(self, event: dict, given: dict) -> tuple[tuple, int]:
        """A leaf's condition, as ``(pattern, cell code)`` (``('', 0)`` for
        the whole stream), and the event's index in the condition's tally;
        the code is None for a condition outside the domains, which never
        occurs."""
        match sorted(given), sorted(event):
            case ['x', 'z'], ['y']:
                tag, axis = 'xz', 'y'
            case ['x'], ['z']:
                tag, axis = 'x', 'z'
            case [], [('x' | 'z') as axis]:
                tag = ''
            case _:
                raise ValueError(f"leaf {', '.join(sorted(event))} given "
                                 f"({', '.join(sorted(given))}) is not tracked")
        value = _as_z(event[axis]) if axis == 'z' else event[axis]
        try:
            i = self._index[axis][value]
        except (KeyError, TypeError):  # an event value with no place in the tallies
            raise ValueError(f"leaf value {value!r} not in declared domain") from None
        if axis == 'x':
            i += len(self.z_values)  # the whole stream's tally is z, then x
        return (tag, self._code(tag, given)), i

    def checkpoints(self) -> list[int]:
        """Stream positions, in order, at which some dyadic level was
        reached: the rows at which ``checkpoint_version`` advanced."""
        return sorted({p for levels in self._levels.values() for p, _ in levels})

    # -- housekeeping ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return (self.n == other.n and self._counts == other._counts
                and self._levels == other._levels
                and self.checkpoint_version == other.checkpoint_version)

    def __repr__(self) -> str:
        return (f"CountTable(n={self.n}, |X|={len(self.x_domain)}, "
                f"|Y|={len(self.y_domain)}, |Z|={len(self.z_values)})")


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

