"""Streaming occurrence counts over categorical observation streams.

A :class:`CountTable` names every cell by domain index: x and y index
their declared domains, z indexes ``z_values`` (the product of the
z-component domains in lexicographic order), and a row's cell code is
``(x * |Y| + y) * |Z| + z``.  ``CountTable._indices`` holds the one domain
check of an observation (``ingest_all`` codes rows inline and calls it only
for a row it cannot code), and the reads code their arguments alike, so
equal values (``1``, ``1.0``, ``True``; z as a scalar, list or tuple) name
one cell.

The table stores only the (x, y, z) counts, by cell code, and sums the
(x, z), x and z counts from them on read, so a row-by-row ingest costs
O(|Y|·|Z|).  When the count of a condition the estimators read ((x, z),
x, or the whole stream as the empty pattern's one condition ``('', 0)``)
reaches a power of two ``2**j``, a log keyed by the condition's pattern
and code records the stream position and the condition's outcome tally.
Only this module reads the log: :meth:`CountTable.leaf` answers an
estimated probability as ``(count, hits)``, over the whole stream or over
the first ``dyadic_floor(count)`` occurrences of the condition after any
prefix, and :meth:`CountTable.leaf_runs` answers many leaves for every run
of prefixes over which none of the logs they read gains a level.  A table
holds O(cells + conditions * log n) entries, however long the stream.

:meth:`CountTable.ingest` adds one observation and is the reference path.
:meth:`CountTable.ingest_codes` adds cell codes ``_CHUNK_ROWS`` at a time:
one ``numpy.bincount`` for the counts, and one loop over the runs of equal
condition code after a stable argsort logs every condition's levels.
:meth:`CountTable.ingest_all` codes a stream's rows and hands their codes
over a chunk at a time.  Every path builds the table that ``ingest`` builds.

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


def _dyadic(log: Sequence, levels: int, i: int) -> tuple[int, int]:
    """(count, hits) of tally ``i`` once a condition's log has ``levels`` levels."""
    return (1 << (levels - 1), log[levels - 1][1][i]) if levels else (0, 0)


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
        nx, ny, nz = map(len, self._index.values())
        x, y, z = np.unravel_index(cells, (nx, ny, nz))

        # checkpoints first: they read the counts as they stood before the chunk
        for tag, cond, outcomes in (('xz', x * nz + z, ((y, ny),)), ('x', x, ((z, nz),)),
                                    ('', np.zeros_like(x), ((z, nz), (x, nx)))):
            self._crossings(tag, cond, outcomes)

        store = self._counts
        found = np.bincount(cells)
        present = np.flatnonzero(found)
        for c, k in zip(present.tolist(), found[present].tolist()):
            store[c] += k

        self.n += m

    def _crossings(self, tag: str, cond: np.ndarray, outcomes: tuple) -> None:
        """Log a level at each row of a chunk where the count of a condition of
        pattern ``tag`` reaches a power of two, as :meth:`ingest` does for one
        row.  ``cond`` holds the rows' condition codes, ``outcomes`` the tally's
        parts as (rows' codes, size); the first part sums to the count."""
        order = np.argsort(cond, kind='stable')
        cond = cond[order]
        starts = [0, *(np.flatnonzero(cond[1:] != cond[:-1]) + 1).tolist()]
        # each row's outcome codes side by side, offset into one tally
        k, sizes = len(outcomes), [size for _, size in outcomes]
        codes = np.stack([col[order] + sum(sizes[:j]) for j, (col, _) in enumerate(outcomes)],
                         axis=1).ravel()
        first, width, tally, levels = sizes[0], sum(sizes), self._tally, self._levels
        for a, b, code in zip(starts, [*starts[1:], len(cond)], cond[starts].tolist()):
            key = (tag, code)
            base = tally(key)  # the outcome tally before the chunk
            count = sum(base[:first])
            t = 1 << count.bit_length()  # the first power of two past count
            while t <= count + b - a:
                p = a + t - count  # the run's rows up to the one reaching t
                chunk = np.bincount(codes[a * k:p * k], minlength=width).tolist()
                levels.setdefault(key, []).append(
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
        """
        cond, i = self._locate(event, given)
        if m is not None:
            log = self._levels.get(cond, ())
            return _dyadic(log, bisect_right(log, _prefix_length(m, self.n), key=_position), i)
        if cond[1] is None:  # a condition that never occurs
            return 0, 0
        tally = self._tally(cond)
        return (sum(tally) if cond[0] else self.n), tally[i]

    def leaf_runs(self, leaves: Sequence[tuple[dict, dict]]
                  ) -> Iterator[tuple[int, int, tuple[tuple[int, int], ...]]]:
        """``(first_n, last_n, pairs)`` per run of prefixes over which no log
        the leaves read gains a level: the runs start at ``min(1, n)`` and at
        every position of those logs, and the last ends at ``n``.  ``pairs``
        holds ``leaf(event, given, m)`` of the leaves at every m in the run,
        so consecutive runs differ.  The runs are the table's as of this
        call; each log is walked once."""
        located = [self._locate(event, given) for event, given in leaves]
        slot = {cond: s for s, cond in enumerate(dict.fromkeys(c for c, _ in located))}
        logs = [self._levels.get(cond, ()) for cond in slot]
        cells = [(slot[cond], i) for cond, i in located]
        starts = sorted({min(1, self.n), *(p for log in logs for p, _ in log)})
        bounds = list(zip(starts, [p - 1 for p in starts[1:]] + [self.n]))

        def runs():
            levels = [0] * len(logs)  # per log, the levels reached
            for first, last in bounds:
                for s, log in enumerate(logs):
                    while levels[s] < len(log) and log[levels[s]][0] <= first:
                        levels[s] += 1
                yield first, last, tuple([_dyadic(logs[s], levels[s], i) for s, i in cells])
        return runs()

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
