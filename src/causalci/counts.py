"""Streaming occurrence counts over categorical observation streams.

A :class:`CountTable` ingests observations ``(x, y, z)`` and maintains, for
every value pattern, the number of occurrences so far plus dyadic
checkpoint tallies: whenever a pattern's count reaches a power of two
``2**j``, the table snapshots the joint counts over the pattern's outcome
coordinate.  Those snapshots are exactly what is needed to compute
estimates restricted to the first ``dyadic_floor(count)`` occurrences of a
condition, in O(1) per query and O(1) amortized per ingested observation.

Each level is logged next to the stream position at which it was reached,
so the log also answers dyadic queries at any prefix of the stream by
bisection (:meth:`CountTable.prefix_dyadic_estimate`), and lists the
positions at which the anytime estimates can change
(:meth:`CountTable.checkpoints`).

:meth:`CountTable.ingest` adds one observation and is the reference path.
:meth:`CountTable.ingest_all` adds a whole stream column-wise, in chunks of
``_CHUNK_ROWS`` rows: each row becomes one integer cell code, and a chunk
is applied with ``numpy.bincount`` for the counts and a stable argsort by
condition cell for the checkpoints.  The resulting table, checkpoint
version and log included, equals the one row-by-row ``ingest`` builds.

Arrival positions (the 1-based stream index of every occurrence of every
pattern) are kept by default; they serve only the exact prefix counts of
:meth:`CountTable.count_at`.  Pass ``track_arrivals=False`` for a table
whose memory does not grow with the stream; it answers every other query,
dyadic prefix queries included (the CLI and the Monte Carlo harness do
this).

Composite z-values are tuples ordered by the declared Z-component order,
and iteration over z patterns always follows the lexicographic order of
the declared domains, so outputs are deterministic.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from bisect import bisect_right
from itertools import product
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# rows per chunk of CountTable.ingest_all; bounds the memory it holds
_CHUNK_ROWS = 4096
# tracked patterns: tag and the axes of (x, y, z) that the pattern fixes
_PATTERNS = (('xyz', (0, 1, 2)), ('xz', (0, 2)), ('x', (0,)), ('z', (2,)))
# (condition, event) coordinates of the materialized dyadic tallies
_DYADIC_PAIRS = {(('x', 'z'), ('y',)), (('x',), ('z',)), ((), ('z',)), ((), ('x',))}
_DYADIC_CONDITIONS = {given for given, _ in _DYADIC_PAIRS}
# a logged level is (stream position at which it was reached, outcome tally)
_position = itemgetter(0)


class Observation(NamedTuple):
    """One time-step's realized values: treatment, outcome, covariate tuple."""

    x: object
    y: object
    z: tuple


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


def _is_pow2(n: int) -> bool:
    return n & (n - 1) == 0


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


class CountTable:
    """Streaming counts for all tracked value patterns of one stream.

    Tracked patterns, the ones the estimators read: (x,y,z), (x,z), (x),
    (z), and the stream length itself.  Dyadic tallies are materialized for
    the condition patterns that the estimators condition on: (x,z) with
    outcome y, (x) with outcome z, and the whole stream with outcomes x and
    z.
    """

    def __init__(self, x_domain: Sequence, y_domain: Sequence,
                 z_domains: Sequence[Sequence], track_arrivals: bool = True):
        if not x_domain or not y_domain:
            raise ValueError("x and y domains must be non-empty")
        if not z_domains or any(not d for d in z_domains):
            raise ValueError("every z component needs a non-empty domain")
        self.x_domain = tuple(x_domain)
        self.y_domain = tuple(y_domain)
        self.z_domains = tuple(tuple(d) for d in z_domains)
        self.z_values = tuple(product(*self.z_domains))
        self.track_arrivals = track_arrivals

        self.n = 0
        self._counts: dict[tuple, int] = {}
        self._arrivals: dict[tuple, list[int]] = {}
        # condition key -> list of per-level (position, outcome-count tuple);
        # level j holds the tallies among the first 2**j occurrences of the
        # condition, reached at that stream position.  The whole stream's
        # level j is reached at position 2**j, so its lists hold the tallies.
        self._xz_levels: dict[tuple, list[tuple[int, tuple[int, ...]]]] = {}
        self._x_levels: dict[object, list[tuple[int, tuple[int, ...]]]] = {}
        self._n_levels_x: list[tuple[int, ...]] = []
        self._n_levels_z: list[tuple[int, ...]] = []
        self.checkpoint_version = 0

        self._x_set = set(self.x_domain)
        self._y_set = set(self.y_domain)
        self._z_sets = tuple(set(d) for d in self.z_domains)
        self._y_index = {v: i for i, v in enumerate(self.y_domain)}
        self._z_index = {v: i for i, v in enumerate(self.z_values)}
        self._x_index = {v: i for i, v in enumerate(self.x_domain)}

    # -- ingestion ---------------------------------------------------------

    def ingest(self, obs) -> None:
        """Add one observation to the stream; validates every coordinate."""
        x, y, z = obs
        z = tuple(z) if isinstance(z, (list, tuple)) else (z,)
        try:
            if x not in self._x_set:
                raise ValueError(f"x value {x!r} not in declared domain")
            if y not in self._y_set:
                raise ValueError(f"y value {y!r} not in declared domain")
            if len(z) != len(self.z_domains):
                raise ValueError(f"z has {len(z)} coordinates, expected {len(self.z_domains)}")
            for i, (zv, dom) in enumerate(zip(z, self._z_sets)):
                if zv not in dom:
                    raise ValueError(f"z[{i}] value {zv!r} not in declared domain")
        except TypeError:
            # an unhashable value is in no domain; every check before the
            # failing one passed, so the first unhashable value is the culprit
            named = [('x', x), ('y', y)] + [(f'z[{i}]', zv) for i, zv in enumerate(z)]
            for name, value in named:
                if not _hashable(value):
                    raise ValueError(f"{name} value {value!r} not in declared domain") from None
            raise

        self.n += 1
        keys = (('xyz', x, y, z), ('xz', x, z), ('x', x), ('z', z))
        counts = self._counts
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        if self.track_arrivals:
            arrivals = self._arrivals
            for key in keys:
                arrivals.setdefault(key, []).append(self.n)

        # dyadic checkpoints, materialized after the increments
        c = counts[('xz', x, z)]
        if _is_pow2(c):
            vec = tuple(counts.get(('xyz', x, yv, z), 0) for yv in self.y_domain)
            self._xz_levels.setdefault((x, z), []).append((self.n, vec))
            self.checkpoint_version += 1
        c = counts[('x', x)]
        if _is_pow2(c):
            vec = tuple(counts.get(('xz', x, zv), 0) for zv in self.z_values)
            self._x_levels.setdefault(x, []).append((self.n, vec))
            self.checkpoint_version += 1
        if _is_pow2(self.n):
            self._n_levels_x.append(tuple(counts.get(('x', xv), 0) for xv in self.x_domain))
            self._n_levels_z.append(tuple(counts.get(('z', zv), 0) for zv in self.z_values))
            self.checkpoint_version += 1

    def ingest_all(self, stream: Iterable) -> None:
        """Add every observation of ``stream``; the table ends up equal to
        the one that row-by-row :meth:`ingest` builds.

        Rows are pulled lazily and coded as cells in chunks of
        ``_CHUNK_ROWS``; each full chunk is applied column-wise, so at most
        one chunk is held.  On an invalid row the rows before it are
        applied, and :meth:`ingest` raises its usual error for the row.  If
        the stream itself raises, the rows read before are applied first.
        """
        x_index, y_index, z_index = self._x_index, self._y_index, self._z_index
        ny, nz = len(self.y_domain), len(self.z_values)
        chunk = _CHUNK_ROWS
        cells: list[int] = []
        append = cells.append
        try:
            for obs in stream:
                try:
                    x, y, z = obs
                    z = tuple(z) if isinstance(z, (list, tuple)) else (z,)
                    append((x_index[x] * ny + y_index[y]) * nz + z_index[z])
                except (KeyError, TypeError, ValueError):
                    self._add_cells(cells)
                    cells.clear()
                    self.ingest(obs)  # raises the error for this row
                    continue
                if len(cells) == chunk:
                    self._add_cells(cells)
                    cells.clear()
        finally:
            self._add_cells(cells)

    def _add_cells(self, cells: list[int]) -> None:
        """Apply a chunk of rows coded ``(x * |Y| + y) * |Z| + z`` by domain
        index, exactly as if each row had gone through :meth:`ingest`."""
        m = len(cells)
        if not m:
            return
        dims = (len(self.x_domain), len(self.y_domain), len(self.z_values))
        cols = np.unravel_index(np.array(cells, dtype=np.intp), dims)
        codes = {tag: np.ravel_multi_index([cols[a] for a in axes],
                                           [dims[a] for a in axes])
                 for tag, axes in _PATTERNS}
        get = self._counts.get
        n0 = self.n

        # checkpoints first: they read the counts as they stood before the chunk
        crossed = 0
        for xz, level in self._crossings(codes['xz'], cols[1], dims[1], 'xz',
                                         lambda x, z: [get(('xyz', x, yv, z), 0)
                                                       for yv in self.y_domain]):
            self._xz_levels.setdefault(xz, []).append(level)
            crossed += 1
        for (x,), level in self._crossings(cols[0], cols[2], dims[2], 'x',
                                           lambda x: [get(('xz', x, zv), 0)
                                                      for zv in self.z_values]):
            self._x_levels.setdefault(x, []).append(level)
            crossed += 1
        t = 1 << n0.bit_length()  # the first power of two past n0
        while t <= n0 + m:
            for levels, col, tag, domain in (
                    (self._n_levels_x, cols[0], 'x', self.x_domain),
                    (self._n_levels_z, cols[2], 'z', self.z_values)):
                tally = np.bincount(col[:t - n0], minlength=len(domain))
                tally += [get((tag, v), 0) for v in domain]
                levels.append(tuple(tally.tolist()))
            crossed += 1
            t <<= 1

        for tag, axes in _PATTERNS:
            code = codes[tag]
            found = np.bincount(code)
            present = np.flatnonzero(found)
            keys = [(tag, *self._cell_values(axes, c)) for c in present.tolist()]
            for key, c in zip(keys, found[present].tolist()):
                self._counts[key] = get(key, 0) + c
            if self.track_arrivals:
                # a stable sort groups each key's rows in stream order
                positions = (np.argsort(code, kind='stable') + n0 + 1).tolist()
                ends = np.cumsum(found[present]).tolist()
                for key, start, end in zip(keys, [0] + ends, ends):
                    self._arrivals.setdefault(key, []).extend(positions[start:end])

        self.n += m
        self.checkpoint_version += crossed

    def _crossings(self, cond, outcome, n_outcomes: int, tag: str, tally_before):
        """(condition value, (stream position, outcome tally)) at each row of
        a chunk where the condition's running count reaches a power of two.

        ``cond`` and ``outcome`` are per-row codes of the condition pattern
        ``tag`` and of the outcome coordinate; ``tally_before`` gives the
        condition's outcome counts as they stood before the chunk.
        """
        axes = dict(_PATTERNS)[tag]
        order = np.argsort(cond, kind='stable')
        cond, outcome = cond[order], outcome[order]
        new = np.ones(len(cond), dtype=bool)  # first row of its condition
        new[1:] = cond[1:] != cond[:-1]
        group = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        values = [self._cell_values(axes, c) for c in cond[starts].tolist()]
        before = np.array([self._counts.get((tag, *v), 0) for v in values])
        start = starts[group]
        occurrence = before[group] + np.arange(len(cond)) - start + 1
        for p in np.flatnonzero(occurrence & (occurrence - 1) == 0).tolist():
            value = values[group[p]]
            tally = np.bincount(outcome[start[p]:p + 1], minlength=n_outcomes)
            tally += tally_before(*value)
            yield value, (self.n + int(order[p]) + 1, tuple(tally.tolist()))

    def _cell_values(self, axes, code: int) -> tuple:
        """Domain values of a pattern's cell code (row-major over ``axes``)."""
        domains = (self.x_domain, self.y_domain, self.z_values)
        values = []
        for a in reversed(axes):
            code, i = divmod(code, len(domains[a]))
            values.append(domains[a][i])
        return tuple(reversed(values))

    # -- pattern helpers ---------------------------------------------------

    @staticmethod
    def _key(x=None, y=None, z=None) -> tuple | None:
        """Internal key for a (possibly partial) pattern; None = full stream."""
        if z is not None and not isinstance(z, tuple):
            z = tuple(z) if isinstance(z, list) else (z,)
        match (x is not None, y is not None, z is not None):
            case (True, True, True):
                return ('xyz', x, y, z)
            case (True, False, True):
                return ('xz', x, z)
            case (True, False, False):
                return ('x', x)
            case (False, False, True):
                return ('z', z)
            case (False, False, False):
                return None
        fixed = [name for name, v in (('x', x), ('y', y), ('z', z)) if v is not None]
        raise ValueError(f"pattern ({', '.join(fixed)}) is not tracked")

    def count(self, x=None, y=None, z=None) -> int:
        """Occurrences of the pattern in the whole stream so far."""
        key = self._key(x, y, z)
        if key is None:
            return self.n
        return self._counts.get(key, 0)

    def _check_prefix(self, m: int) -> None:
        if m > self.n:
            raise ValueError(f"prefix length {m} exceeds stream length {self.n}")
        if m < 0:
            raise ValueError("prefix length must be >= 0")

    def count_at(self, m: int, x=None, y=None, z=None) -> int:
        """Occurrences of the pattern among the first m observations; a
        prefix shorter than the stream needs the arrival logs."""
        self._check_prefix(m)
        key = self._key(x, y, z)
        if key is None:
            return m
        if m == self.n:
            return self._counts.get(key, 0)
        if not self.track_arrivals:
            raise RuntimeError("prefix queries need track_arrivals=True")
        return bisect_right(self._arrivals.get(key, ()), m)

    # -- estimates ---------------------------------------------------------

    def empirical_estimate(self, event: dict, given: dict | None = None) -> float | None:
        """Joint count of event+given over the count of given; None if the
        condition has not occurred (callers decide what that means)."""
        given = given or {}
        overlap = set(event) & set(given)
        if overlap:
            raise ValueError(f"event and condition overlap on {sorted(overlap)}")
        denom = self.count(**given)
        if denom == 0:
            return None
        return self.count(**{**given, **event}) / denom

    def dyadic_estimate(self, event: dict, given: dict) -> float | None:
        """Fraction of the first dyadic_floor(#given) occurrences of the
        condition that also match the event; None if #given == 0."""
        return self.prefix_dyadic_estimate(event, given, self.n)

    def dyadic_levels(self, event: dict, given: dict) -> list[int]:
        """Event tallies among the first 2**j condition occurrences, for
        every materialized level j."""
        self._require_tracked(event, given)
        c = self.count(**given)
        top = dyadic_floor(c).bit_length() - 1 if c else -1
        return [self._dyadic_tally(event, given, j) for j in range(top + 1)]

    @staticmethod
    def _require_tracked(event: dict, given: dict) -> None:
        """Refuse an (event, condition) pair without dyadic tallies."""
        gk, ek = tuple(sorted(given)), tuple(sorted(event))
        if (gk, ek) not in _DYADIC_PAIRS:
            raise ValueError(f"dyadic tally of {', '.join(ek)} given "
                             f"({', '.join(gk)}) is not tracked")

    def _dyadic_tally(self, event: dict, given: dict, j: int) -> int:
        # the pair is a tracked one, so its coordinates tell it apart
        if 'y' in event:
            _, vec = self._xz_levels[(given['x'], self._as_z(given['z']))][j]
            return vec[self._y_index[event['y']]]
        if given:
            _, vec = self._x_levels[given['x']][j]
            return vec[self._z_index[self._as_z(event['z'])]]
        if 'z' in event:
            return self._n_levels_z[j][self._z_index[self._as_z(event['z'])]]
        return self._n_levels_x[j][self._x_index[event['x']]]

    @staticmethod
    def _as_z(z):
        if isinstance(z, tuple):
            return z
        return tuple(z) if isinstance(z, list) else (z,)

    def _levels_at(self, given: dict, m: int) -> int:
        """How many dyadic levels of the condition the first m observations
        reached: L levels mean a count in [2**(L-1), 2**L), 0 none."""
        if not given:
            return m.bit_length()
        if 'z' in given:
            levels = self._xz_levels.get((given['x'], self._as_z(given['z'])), ())
        else:
            levels = self._x_levels.get(given['x'], ())
        return bisect_right(levels, m, key=_position)

    def prefix_dyadic_floor(self, given: dict, m: int) -> int:
        """dyadic_floor of the condition's count after the first m
        observations, 0 if the condition has not occurred by then."""
        if tuple(sorted(given)) not in _DYADIC_CONDITIONS:
            raise ValueError(f"dyadic levels of ({', '.join(sorted(given))}) "
                             "are not tracked")
        self._check_prefix(m)
        levels = self._levels_at(given, m)
        return 1 << (levels - 1) if levels else 0

    def prefix_dyadic_estimate(self, event: dict, given: dict, m: int) -> float | None:
        """dyadic_estimate as it stood after the first m observations."""
        self._require_tracked(event, given)
        k = self.prefix_dyadic_floor(given, m)
        if not k:
            return None
        return self._dyadic_tally(event, given, k.bit_length() - 1) / k

    def checkpoints(self) -> list[int]:
        """Stream positions, in order, at which some dyadic level was
        reached: the rows at which ``checkpoint_version`` advanced."""
        marks = {1 << j for j in range(len(self._n_levels_x))}
        for levels in (*self._xz_levels.values(), *self._x_levels.values()):
            marks.update(map(_position, levels))
        return sorted(marks)

    # -- housekeeping ------------------------------------------------------

    def snapshot(self) -> "CountTable":
        """Deep copy safe to hand to a concurrent reader."""
        other = CountTable(self.x_domain, self.y_domain, self.z_domains,
                           track_arrivals=self.track_arrivals)
        other.n = self.n
        other._counts = dict(self._counts)
        other._arrivals = {k: list(v) for k, v in self._arrivals.items()}
        other._xz_levels = {k: list(v) for k, v in self._xz_levels.items()}
        other._x_levels = {k: list(v) for k, v in self._x_levels.items()}
        other._n_levels_x = list(self._n_levels_x)
        other._n_levels_z = list(self._n_levels_z)
        other.checkpoint_version = self.checkpoint_version
        return other

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return (self.n == other.n and self._counts == other._counts
                and self._arrivals == other._arrivals
                and self._xz_levels == other._xz_levels
                and self._x_levels == other._x_levels
                and self._n_levels_x == other._n_levels_x
                and self._n_levels_z == other._n_levels_z
                and self.checkpoint_version == other.checkpoint_version)

    def __repr__(self) -> str:
        return (f"CountTable(n={self.n}, |X|={len(self.x_domain)}, "
                f"|Y|={len(self.y_domain)}, |Z|={len(self.z_values)})")


# -- stream readers ---------------------------------------------------------

def read_jsonl(lines: Iterable[str]) -> Iterator[Observation]:
    """Parse a JSON-lines observation stream.

    Each line is an object with fields x, y, z (z an array).  An optional
    leading header object carrying ``format_version`` is accepted and
    skipped.  Raises :class:`ObservationParseError` with the line number on
    malformed input.
    """
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObservationParseError(lineno, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(rec, dict):
            raise ObservationParseError(lineno, "expected a JSON object")
        if lineno == 1 and 'format_version' in rec and 'x' not in rec:
            continue
        try:
            x, y, z = rec['x'], rec['y'], rec['z']
        except KeyError as exc:
            raise ObservationParseError(lineno, f"missing field {exc.args[0]!r}") from exc
        if not isinstance(z, list):
            raise ObservationParseError(lineno, "field 'z' must be an array")
        yield Observation(x, y, tuple(z))


def read_csv(lines: Iterable[str], columns: dict) -> Iterator[Observation]:
    """Parse a CSV observation stream with a declared column mapping.

    ``columns`` maps 'x' and 'y' to column names and 'z' to a list of
    column names (one per z component).  Cell values are parsed as JSON
    scalars where possible, otherwise kept as strings.  Errors name the
    physical line on which the offending row ends.
    """
    reader = csv.DictReader(lines)
    zcols = columns['z']
    if isinstance(zcols, str):
        zcols = [zcols]
    wanted = [columns['x'], columns['y'], *zcols]
    for row in reader:
        try:
            cells = [row[c] for c in wanted]
        except KeyError as exc:
            raise ObservationParseError(reader.line_num,
                                        f"missing column {exc.args[0]!r}") from exc
        if None in cells:  # DictReader pads a short row with None
            column = wanted[cells.index(None)]
            raise ObservationParseError(reader.line_num,
                                        f"short row: no cell for column {column!r}")
        x, y, *z = map(_coerce, cells)
        yield Observation(x, y, tuple(z))


def _coerce(cell: str):
    try:
        return json.loads(cell)
    except (json.JSONDecodeError, TypeError):
        return cell


class ObservationStream:
    """Observations parsed from text lines, remembering where they are.

    Iterating yields :class:`Observation` rows.  ``line`` is the 1-based
    number of the last line read, which is the last line of the row most
    recently yielded, so an error found while handling that row can name
    its line.  Leaving a ``with`` block closes the lines' file, unless it
    is standard input.
    """

    def __init__(self, lines: Iterable[str], columns: dict | None = None):
        self.line = 0
        self._lines = lines
        numbered = self._numbered()
        self._rows = read_csv(numbered, columns) if columns else read_jsonl(numbered)

    def _numbered(self) -> Iterator[str]:
        for self.line, text in enumerate(self._lines, start=1):
            yield text

    def __iter__(self) -> Iterator[Observation]:
        return self._rows

    def __enter__(self) -> "ObservationStream":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._lines is not sys.stdin:
            self._lines.close()


def open_stream(path: str, columns: dict | None = None) -> ObservationStream:
    """Read observations from a .jsonl/.csv file path or '-' for stdin;
    use the stream in a ``with`` block to close the file."""
    if path == '-':
        return ObservationStream(sys.stdin, columns)
    if path.endswith('.csv') and not columns:
        raise ValueError("CSV input needs a column mapping")
    return ObservationStream(open(path, 'r', encoding='utf-8'), columns)
