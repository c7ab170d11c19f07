"""Streaming occurrence counts over categorical observation streams.

A :class:`CountTable` names every cell by domain index: x and y index
their declared domains, z indexes ``z_values`` (the product of the
z-component domains in lexicographic order), and a row's cell code is
``(x * |Y| + y) * |Z| + z``.  ``CountTable._indices`` holds the one domain
check of an observation (``ingest_all`` codes rows inline and calls it only
for a row it cannot code), and the reads code their arguments alike, so
equal values (``1``, ``1.0``, ``True``; z as a scalar, list or tuple) name
one cell.

Each tracked pattern, (x, y, z), (x, z), x and z, keeps a list of counts
indexed by its own cell code, row-major over its axes.  When the count of
a condition the estimators read reaches a power of two ``2**j``, a log
keyed by the condition's pattern and code records the stream position
and the condition's outcome tally, a slice of the next finer pattern's
counts.  :meth:`CountTable.leaf` answers every estimated probability as
``(count, hits)``: over the whole stream, or over the first
``dyadic_floor(count)`` occurrences of the condition after any prefix,
found in the log by bisection.  The table holds O(cells + conditions *
log n) entries, however long the stream.

:meth:`CountTable.ingest` adds one observation and is the reference path.
:meth:`CountTable.ingest_codes` adds cell codes in chunks of
``_CHUNK_ROWS`` (``numpy.bincount`` for the counts, a stable argsort by
condition cell for the checkpoints); :meth:`CountTable.ingest_all` codes a
stream's rows inline and hands their codes over a chunk at a time.  Every
path builds the table that row-by-row ``ingest`` builds.

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
import math
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
# tracked patterns, each named by the axes of (x, y, z) that it fixes
_PATTERNS = ('xyz', 'xz', 'x', 'z')
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
    """A z-value as the table codes it: a list as a tuple, a scalar as a 1-tuple."""
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
        # a cell code names one value per coordinate
        for name, dom in (('x', self.x_domain), ('y', self.y_domain),
                          *((f'z[{i}]', d) for i, d in enumerate(self.z_domains))):
            if len(set(dom)) != len(dom):
                raise ValueError(f"duplicate values in the {name} domain {dom!r}")
        # axis -> value -> domain index
        self._index = {axis: {v: i for i, v in enumerate(dom)} for axis, dom
                       in zip('xyz', (self.x_domain, self.y_domain, self.z_values))}

        self.n = 0
        # pattern -> occurrences of each of its cells, by the pattern's cell code
        self._counts = {tag: [0] * math.prod(len(self._index[a]) for a in tag)
                        for tag in _PATTERNS}
        # condition ('xz' or 'x', cell code), or None for the whole stream ->
        # per-level (position, outcome tally): level j holds the tallies among
        # the first 2**j occurrences of the condition, reached at that stream
        # position.  The outcomes are y given (x, z), z given x, and z then x.
        self._levels: dict[tuple | None, list[tuple[int, tuple[int, ...]]]] = {}
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
        xz = x * nz + z
        counts = self._counts
        for tag, code in zip(_PATTERNS, ((x * len(self.y_domain) + y) * nz + z, xz, x, z)):
            counts[tag][code] += 1
        self.n += 1

        # dyadic checkpoints, materialized after the increments
        for cond, c in ((('xz', xz), counts['xz'][xz]), (('x', x), counts['x'][x]),
                        (None, self.n)):
            if _is_pow2(c):
                self._levels.setdefault(cond, []).append((self.n, tuple(self._tally(cond))))
                self.checkpoint_version += 1

    def ingest_all(self, stream: Iterable) -> None:
        """Add every observation of ``stream``; the table ends up equal to
        the one that row-by-row :meth:`ingest` builds.

        Rows are pulled lazily and coded as cells in chunks of
        ``_CHUNK_ROWS``; each full chunk goes to :meth:`ingest_codes`, so at
        most one chunk is held.  On an invalid row the rows before it are
        applied and the error :meth:`ingest` raises for the row is raised.
        If the stream itself raises, the rows read before are applied first.
        """
        x_index, y_index, z_index = self._index.values()
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
                    x, y, z = self._indices(obs)  # raises the error for this row
                    append((x * ny + y) * nz + z)
                if len(cells) == chunk:
                    self.ingest_codes(np.array(cells, dtype=np.intp))
                    cells.clear()
        finally:
            self.ingest_codes(np.array(cells, dtype=np.intp))

    def ingest_codes(self, codes) -> None:
        """Add rows given as cell codes ``(x * |Y| + y) * |Z| + z``, where x
        and y index the treatment and outcome domains and z indexes
        ``z_values``; the table ends up as if each row had gone through
        :meth:`ingest`.  Refuses the whole array if a code is not an
        integer in [0, |X|·|Y|·|Z|); else applies it ``_CHUNK_ROWS`` rows
        at a time."""
        codes = np.asarray(codes)
        cells = len(self._counts['xyz'])
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
        size = {axis: len(index) for axis, index in self._index.items()}
        cols = dict(zip('xyz', np.unravel_index(cells, tuple(size.values()))))
        codes = {tag: np.ravel_multi_index([cols[a] for a in tag], [size[a] for a in tag])
                 for tag in _PATTERNS}

        # checkpoints first: they read the counts as they stood before the chunk
        crossed = 0
        for tag, outcome in (('xz', 'y'), ('x', 'z')):
            for key, level in self._crossings(tag, codes[tag], cols[outcome], size[outcome]):
                self._levels.setdefault(key, []).append(level)
                crossed += 1
        # the whole stream reaches level j at position 2**j; its tally is z, then x
        n0 = self.n
        t = 1 << n0.bit_length()  # the first power of two past n0
        while t <= n0 + m:
            chunk = [c for a in 'zx'
                     for c in np.bincount(cols[a][:t - n0], minlength=size[a]).tolist()]
            tally = map(add, chunk, self._tally(None))
            self._levels.setdefault(None, []).append((t, tuple(tally)))
            crossed += 1
            t <<= 1

        for tag in _PATTERNS:
            store = self._counts[tag]
            found = np.bincount(codes[tag])
            present = np.flatnonzero(found)
            for c, k in zip(present.tolist(), found[present].tolist()):
                store[c] += k

        self.n += m
        self.checkpoint_version += crossed

    def _crossings(self, tag: str, cond, outcome, n_outcomes: int):
        """((pattern, cell code), (stream position, outcome tally)) at each
        row of a chunk where a condition's running count reaches a power of
        two.

        ``cond`` and ``outcome`` are per-row codes of the condition pattern
        ``tag`` and of the outcome coordinate.
        """
        order = np.argsort(cond, kind='stable')
        cond, outcome = cond[order], outcome[order]
        new = np.ones(len(cond), dtype=bool)  # first row of its condition
        new[1:] = cond[1:] != cond[:-1]
        group = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        keys = [(tag, c) for c in cond[starts].tolist()]
        before = np.array([self._counts[tag][c] for _, c in keys])
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
        """A logged condition's outcome counts so far, in tally order, read
        off the counts of the patterns one axis finer."""
        if cond is None:
            return self._counts['z'] + self._counts['x']
        tag, code = cond
        nz = len(self.z_values)
        if tag == 'x':  # the cells (x, z) for every z
            return self._counts['xz'][code * nz:(code + 1) * nz]
        x, z = divmod(code, nz)  # the cells (x, y, z) for every y, |Z| apart
        block = len(self.y_domain) * nz
        return self._counts['xyz'][x * block + z:(x + 1) * block:nz]

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
        if tag not in self._counts:
            raise ValueError(f"pattern ({', '.join(tag)}) is not tracked")
        code = self._code(tag, values)
        return 0 if code is None else self._counts[tag][code]

    def leaf(self, event: dict, given: dict, m=None) -> tuple[int, int]:
        """(count, hits) of one estimated probability, P(event | given):
        y given (x, z), z given x, or z or x given nothing.

        With ``m`` None: the condition's count in the whole stream, and how
        many of those occurrences also match the event.  With an integer
        ``m`` in [0, n]: dyadic_floor of the condition's count after the
        first m observations, and the hits among that many first
        occurrences; (0, 0) if the condition has not occurred by then.
        """
        cond, i = self._locate(event, given)
        if m is not None:
            log = self._levels.get(cond, ())
            levels = bisect_right(log, _prefix_length(m, self.n), key=_position)
            # a count in [2**(levels-1), 2**levels)
            return (1 << (levels - 1), log[levels - 1][1][i]) if levels else (0, 0)
        if cond is None:
            return self.n, self._tally(None)[i]
        tag, code = cond
        return (0, 0) if code is None else (self._counts[tag][code], self._tally(cond)[i])

    def _leaf_log(self, event: dict, given: dict) -> tuple[list, int]:
        """The dyadic log that :meth:`leaf` bisects for a prefix, as
        (position, tally) levels in order, and the event's index in the
        tallies."""
        cond, i = self._locate(event, given)
        return self._levels.get(cond, ()), i

    def _locate(self, event: dict, given: dict) -> tuple[tuple | None, int]:
        """A leaf's condition, as ``(pattern, cell code)`` or None for the
        whole stream, and the event's index in the condition's tally; the
        code is None for a condition outside the domains, which never
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
        return ((tag, self._code(tag, given)) if tag else None), i

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
