"""Streaming occurrence counts over categorical observation streams.

A :class:`CountTable` ingests observations ``(x, y, z)`` and keeps only
what an estimator reads: for every tracked value pattern, the number of
occurrences so far, and one log of dyadic levels.  Whenever the count of a
condition the estimators condition on reaches a power of two ``2**j``,
the log records the stream position and the joint counts over the
condition's outcome coordinates.

Every estimated probability is a frequency ``hits / count``, and
:meth:`CountTable.leaf` is the one read that answers it: over the whole
stream, or over the first ``dyadic_floor(count)`` occurrences of the
condition after any prefix of the stream, found in the log by bisection.
:meth:`CountTable.checkpoints` lists the positions at which the dyadic
reads can change.  The table holds O(cells + conditions * log n) entries,
however long the stream.

:meth:`CountTable.ingest` adds one observation and is the reference path.
:meth:`CountTable.ingest_codes` adds rows given as integer cell codes
``(x * |Y| + y) * |Z| + z`` by domain index, column-wise, in chunks of
``_CHUNK_ROWS`` rows: a chunk is applied with ``numpy.bincount`` for the
counts and a stable argsort by condition cell for the checkpoints.
:meth:`CountTable.ingest_all` adds a stream of observations by coding
each row as its cell and handing the codes over a chunk at a time; the
samplers of the coverage harness hand over their codes directly.  Either
way the resulting table, checkpoint version and log included, equals the
one row-by-row ``ingest`` builds.

:func:`read_jsonl` parses each distinct line once: it keeps the rows of
up to ``_LINE_CACHE`` distinct lines, so rows from identical lines may be
the same :class:`Observation` object.  A categorical stream has at most
|X|·|Y|·|Z| distinct records, so most lines cost one dictionary lookup.

Composite z-values are tuples ordered by the declared Z-component order,
and iteration over z patterns always follows the lexicographic order of
the declared domains, so outputs are deterministic.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import sys
from bisect import bisect_right
from itertools import product
from operator import add, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# rows per chunk that CountTable applies at once; bounds what ingest_all holds
_CHUNK_ROWS = 4096
# distinct lines whose rows read_jsonl keeps; bounds the memory it holds
_LINE_CACHE = 4096
# tracked patterns: tag and the axes of (x, y, z) that the pattern fixes
_PATTERNS = (('xyz', (0, 1, 2)), ('xz', (0, 2)), ('x', (0,)), ('z', (2,)))
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


def _prefix_length(m, n: int) -> int:
    """``m``, of any integral type, as the length of a prefix of an n-row stream."""
    try:
        m = operator.index(m)
    except TypeError:
        raise ValueError(f"prefix length {m!r} is not an integer") from None
    if not 0 <= m <= n:
        raise ValueError(f"prefix length {m} is not in [0, {n}]")
    return m


def _as_z(z) -> tuple:
    """A z-value as the table keys it: a list as a tuple, a scalar as a 1-tuple."""
    if isinstance(z, tuple):
        return z
    return tuple(z) if isinstance(z, list) else (z,)


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
    (z), and the stream length itself, with dyadic tallies for the
    conditions of the pairs that :meth:`leaf` reads.
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

        self.n = 0
        self._counts: dict[tuple, int] = {}
        # condition key ('xz', x, z), ('x', x) or None (the whole stream) ->
        # per-level (position, outcome tally): level j holds the tallies
        # among the first 2**j occurrences of the condition, reached at that
        # stream position.  The outcomes are y given (x, z), z given x, and
        # z followed by x for the whole stream.
        self._levels: dict[tuple | None, list[tuple[int, tuple[int, ...]]]] = {}
        self.checkpoint_version = 0

        self._x_set = set(self.x_domain)
        self._y_set = set(self.y_domain)
        self._z_sets = tuple(set(d) for d in self.z_domains)
        self._y_index = {v: i for i, v in enumerate(self.y_domain)}
        self._z_index = {v: i for i, v in enumerate(self.z_values)}
        self._x_index = {v: i for i, v in enumerate(self.x_domain)}
        # a cell code names one value per coordinate
        for name, dom in (('x', self.x_domain), ('y', self.y_domain),
                          *((f'z[{i}]', d) for i, d in enumerate(self.z_domains))):
            if len(set(dom)) != len(dom):
                raise ValueError(f"duplicate values in the {name} domain {dom!r}")

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
        xz, xk = ('xz', x, z), ('x', x)
        counts = self._counts
        for key in (('xyz', x, y, z), xz, xk, ('z', z)):
            counts[key] = counts.get(key, 0) + 1

        # dyadic checkpoints, materialized after the increments
        for cond, c in ((xz, counts[xz]), (xk, counts[xk]), (None, self.n)):
            if _is_pow2(c):
                self._levels.setdefault(cond, []).append((self.n, tuple(self._tally(cond))))
                self.checkpoint_version += 1

    def ingest_all(self, stream: Iterable) -> None:
        """Add every observation of ``stream``; the table ends up equal to
        the one that row-by-row :meth:`ingest` builds.

        Rows are pulled lazily and coded as cells in chunks of
        ``_CHUNK_ROWS``; each full chunk goes to :meth:`ingest_codes`, so at
        most one chunk is held.  On an invalid row the rows before it are
        applied, and :meth:`ingest` raises its usual error for the row.  If
        the stream itself raises, the rows read before are applied first.
        """
        x_index, y_index, z_index = self._x_index, self._y_index, self._z_index
        ny, nz = len(self.y_domain), len(self.z_values)
        chunk = _CHUNK_ROWS
        cells: list[int] = []
        append = cells.append

        def flush():
            self.ingest_codes(np.array(cells, dtype=np.intp))
            cells.clear()

        try:
            for obs in stream:
                try:
                    x, y, z = obs
                    z = tuple(z) if isinstance(z, (list, tuple)) else (z,)
                    append((x_index[x] * ny + y_index[y]) * nz + z_index[z])
                except (KeyError, TypeError, ValueError):
                    flush()
                    self.ingest(obs)  # raises the error for this row
                    continue
                if len(cells) == chunk:
                    flush()
        finally:
            flush()

    def ingest_codes(self, codes) -> None:
        """Add rows given as cell codes ``(x * |Y| + y) * |Z| + z``, where x
        and y index the treatment and outcome domains and z indexes
        ``z_values``; the table ends up as if each row had gone through
        :meth:`ingest`.  Refuses the whole array if a code is not an
        integer in [0, |X|·|Y|·|Z|); else applies it ``_CHUNK_ROWS`` rows
        at a time."""
        codes = np.asarray(codes)
        cells = len(self.x_domain) * len(self.y_domain) * len(self.z_values)
        if codes.ndim != 1 or (codes.size and codes.dtype.kind not in 'iu'):
            raise ValueError("cell codes must be a one-dimensional array of integers")
        if codes.size and (codes.min() < 0 or codes.max() >= cells):
            row = np.flatnonzero((codes < 0) | (codes >= cells))[0]
            raise ValueError(f"cell code {codes[row]} at row {row} is not in [0, {cells})")
        for start in range(0, len(codes), _CHUNK_ROWS):
            self._add_cells(codes[start:start + _CHUNK_ROWS])

    def cell_codes(self, x, y, z) -> np.ndarray:
        """The cell codes of rows given by domain index: x and y as arrays,
        z as one array per z component."""
        z = np.ravel_multi_index(z, [len(d) for d in self.z_domains])
        return (x * len(self.y_domain) + y) * len(self.z_values) + z

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
        dims = (len(self.x_domain), len(self.y_domain), len(self.z_values))
        cols = np.unravel_index(cells, dims)
        codes = {tag: np.ravel_multi_index([cols[a] for a in axes],
                                           [dims[a] for a in axes])
                 for tag, axes in _PATTERNS}

        # checkpoints first: they read the counts as they stood before the chunk
        crossed = 0
        for tag, cond, a in (('xz', codes['xz'], 1), ('x', cols[0], 2)):
            for key, level in self._crossings(tag, cond, cols[a], dims[a]):
                self._levels.setdefault(key, []).append(level)
                crossed += 1
        # the whole stream reaches level j at position 2**j; its tally is z, then x
        get = self._counts.get
        n0 = self.n
        t = 1 << n0.bit_length()  # the first power of two past n0
        while t <= n0 + m:
            chunk = [c for a in (2, 0)
                     for c in np.bincount(cols[a][:t - n0], minlength=dims[a]).tolist()]
            tally = map(add, chunk, self._tally(None))
            self._levels.setdefault(None, []).append((t, tuple(tally)))
            crossed += 1
            t <<= 1

        for tag, axes in _PATTERNS:
            found = np.bincount(codes[tag])
            present = np.flatnonzero(found)
            for c, k in zip(present.tolist(), found[present].tolist()):
                key = (tag, *self._cell_values(axes, c))
                self._counts[key] = get(key, 0) + k

        self.n += m
        self.checkpoint_version += crossed

    def _crossings(self, tag: str, cond, outcome, n_outcomes: int):
        """(condition key, (stream position, outcome tally)) at each row of
        a chunk where the condition's running count reaches a power of two.

        ``cond`` and ``outcome`` are per-row codes of the condition pattern
        ``tag`` and of the outcome coordinate.
        """
        order = np.argsort(cond, kind='stable')
        cond, outcome = cond[order], outcome[order]
        new = np.ones(len(cond), dtype=bool)  # first row of its condition
        new[1:] = cond[1:] != cond[:-1]
        group = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        axes = dict(_PATTERNS)[tag]
        keys = [(tag, *self._cell_values(axes, c)) for c in cond[starts].tolist()]
        get = self._counts.get
        before = np.array([get(k, 0) for k in keys])
        start = starts[group]
        occurrence = before[group] + np.arange(len(cond)) - start + 1
        hits = np.flatnonzero(occurrence & (occurrence - 1) == 0).tolist()
        # each condition cell's outcome tally as it stood before the chunk
        base = [self._tally(key) for key in keys] if hits else []
        for p in hits:
            g = group[p]
            chunk = np.bincount(outcome[start[p]:p + 1], minlength=n_outcomes).tolist()
            yield keys[g], (self.n + int(order[p]) + 1, tuple(map(add, chunk, base[g])))

    def _tally(self, cond: tuple | None) -> list[int]:
        """A logged condition's outcome counts so far, in tally order."""
        if cond is None:
            keys = [('z', zv) for zv in self.z_values] + [('x', xv) for xv in self.x_domain]
        elif cond[0] == 'xz':
            keys = [('xyz', cond[1], yv, cond[2]) for yv in self.y_domain]
        else:
            keys = [('xz', cond[1], zv) for zv in self.z_values]
        get = self._counts.get
        return [get(k, 0) for k in keys]

    def _cell_values(self, axes, code: int) -> tuple:
        """Domain values of a pattern's cell code (row-major over ``axes``)."""
        domains = (self.x_domain, self.y_domain, self.z_values)
        values = []
        for a in reversed(axes):
            code, i = divmod(code, len(domains[a]))
            values.append(domains[a][i])
        return tuple(reversed(values))

    # -- reads ---------------------------------------------------------------

    def count(self, x=None, y=None, z=None) -> int:
        """Occurrences of a tracked pattern in the whole stream so far."""
        z = None if z is None else _as_z(z)
        match (x is not None, y is not None, z is not None):
            case (True, True, True):
                key = ('xyz', x, y, z)
            case (True, False, True):
                key = ('xz', x, z)
            case (True, False, False):
                key = ('x', x)
            case (False, False, True):
                key = ('z', z)
            case (False, False, False):
                return self.n
            case _:
                fixed = [name for name, v in (('x', x), ('y', y), ('z', z)) if v is not None]
                raise ValueError(f"pattern ({', '.join(fixed)}) is not tracked")
        return self._counts.get(key, 0)

    def leaf(self, event: dict, given: dict, m=None) -> tuple[int, int]:
        """(count, hits) of one estimated probability, P(event | given):
        y given (x, z), z given x, or z or x given nothing.

        With ``m`` None: the condition's count in the whole stream, and how
        many of those occurrences also match the event.  With an integer
        ``m`` in [0, n]: dyadic_floor of the condition's count after the
        first m observations, and the hits among that many first
        occurrences; (0, 0) if the condition has not occurred by then.
        """
        try:
            match sorted(given), sorted(event):
                case ['x', 'z'], ['y']:
                    cond, i = ('xz', given['x'], _as_z(given['z'])), self._y_index[event['y']]
                case ['x'], ['z']:
                    cond, i = ('x', given['x']), self._z_index[_as_z(event['z'])]
                case [], ['z']:
                    cond, i = None, self._z_index[_as_z(event['z'])]
                case [], ['x']:
                    cond, i = None, len(self.z_values) + self._x_index[event['x']]
                case _:
                    raise ValueError(f"leaf {', '.join(sorted(event))} given "
                                     f"({', '.join(sorted(given))}) is not tracked")
        except KeyError as exc:  # an event value with no place in the tallies
            raise ValueError(f"leaf value {exc.args[0]!r} not in declared domain") from None
        if m is None:
            return self.n if cond is None else self._counts.get(cond, 0), self._tally(cond)[i]
        m = _prefix_length(m, self.n)
        log = self._levels.get(cond, ())
        levels = bisect_right(log, m, key=_position)  # a count in [2**(levels-1), 2**levels)
        return (1 << (levels - 1), log[levels - 1][1][i]) if levels else (0, 0)

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

def read_jsonl(lines: Iterable[str]) -> Iterator[Observation]:
    """Parse a JSON-lines observation stream.

    Each line is an object with fields x, y, z (z an array).  An optional
    leading header object carrying ``format_version`` is accepted and
    skipped.  Raises :class:`ObservationParseError` with the line number on
    malformed input, including text that is not valid UTF-8.

    Each distinct line is parsed and checked once: the reader keeps the
    rows of up to ``_LINE_CACHE`` distinct lines whose values are all
    hashable (so immutable), and yields the same :class:`Observation`
    object again for an identical line.
    """
    cache: dict[str, Observation] = {}
    room = _LINE_CACHE
    for lineno, text in enumerate(lines, start=1):
        obs = cache.get(text)
        if obs is not None:
            yield obs
            continue
        if not text.isascii():
            _require_utf8(lineno, text)
        line = text.strip()
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
        obs = Observation(x, y, tuple(z))
        # the row depends only on the text, except the header skipped above
        if room and _hashable(obs):
            cache[text] = obs
            room -= 1
        yield obs


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
    physical line on which the offending row ends.
    """
    reader = csv.DictReader(_utf8_lines(lines))
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
        x, y, *z = map(parse_scalar, cells)
        yield Observation(x, y, tuple(z))


def parse_scalar(token: str):
    """A CSV cell or a command-line value: the JSON value it spells, or
    the string itself when it is not JSON."""
    try:
        return json.loads(token)
    except json.JSONDecodeError:
        return token


class ObservationStream:
    """Observations parsed from text lines, remembering where they are.

    Iterating yields :class:`Observation` rows.  ``line`` is the 1-based
    number of the last line read, which is the last line of the row most
    recently yielded, so an error found while handling that row can name
    its line.  Leaving a ``with`` block closes the lines' file.
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
        self._lines.close()


def open_stream(path: str, columns: dict | None = None) -> ObservationStream:
    """Read observations from a .jsonl/.csv file path or '-' for stdin;
    use the stream in a ``with`` block to close the file (standard input
    itself stays open).

    Text is decoded as UTF-8 with ``surrogateescape``, so a byte that is
    not valid UTF-8 reaches the reader, which refuses it naming its line.
    A byte-order mark as the first bytes is dropped; one anywhere else is
    refused like any other text that does not parse.
    """
    if path.endswith('.csv') and not columns:
        raise ValueError("CSV input needs a column mapping")
    stdin = path == '-'
    return ObservationStream(open(sys.stdin.fileno() if stdin else path, 'r',
                                  encoding='utf-8-sig', errors='surrogateescape',
                                  closefd=not stdin), columns)
