"""Web-log ingestion: record parsing, filtering and session segmentation."""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import compress, count, repeat
from operator import attrgetter, gt, itemgetter, sub

DEFAULT_MAX_IDLE_SECONDS = 1800
# Sessions keep their timestamps as C int64s (array typecode "q").
MAX_TIMESTAMP = 2**63 - 1


class LogParseError(ValueError):
    """Malformed log line; remembers the 1-based line number."""

    def __init__(self, message: str, line_number: int) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _check_record(client_id: str, timestamp: int, video_id: str, bytes_sent: int) -> None:
    """Raise ValueError unless the ids are non-empty, the numbers non-negative
    and the timestamp at most MAX_TIMESTAMP."""
    if not client_id or not video_id:
        raise ValueError("client_id and video_id must be non-empty")
    if timestamp < 0:
        raise ValueError(f"negative timestamp {timestamp}")
    if timestamp > MAX_TIMESTAMP:
        raise ValueError(f"timestamp {timestamp} above 2**63 - 1")
    if bytes_sent < 0:
        raise ValueError(f"negative bytes_sent {bytes_sent}")


class AccessEvent(namedtuple("AccessEvent", "client_id timestamp video_id")):
    """Reduced request record: client, time and video."""

    __slots__ = ()

    @property
    def videos(self) -> tuple[str]:
        """The event's video, read the way a Session's videos are."""
        return (self.video_id,)


class Session(namedtuple("Session", "client_id timestamps videos")):
    """A client's maximal run of events with bounded think time.

    `timestamps` (an int64 `array("q")`) and `videos` (a tuple) are its
    events' columns: non-empty, of equal length and in time order (one
    string per video id from `segment_sessions`). `start`/`end` are its
    first and last timestamps; `events` builds the `AccessEvent`s on each read.
    """

    __slots__ = ()

    @property
    def start(self) -> int:
        return self.timestamps[0]

    @property
    def end(self) -> int:
        return self.timestamps[-1]

    @property
    def events(self) -> tuple[AccessEvent, ...]:
        return tuple(map(AccessEvent, repeat(self.client_id), self.timestamps, self.videos))


def _fields(
    line: str, line_number: int, delimiter: str | None
) -> tuple[str, str, int, str, int, int]:
    """The six validated fields of one log line, or LogParseError."""
    fields = line.split(delimiter) if delimiter else line.split()
    if delimiter:
        fields = [f.strip() for f in fields]
    if len(fields) < 6:
        raise LogParseError(
            f"expected at least 6 fields, got {len(fields)}", line_number
        )
    client_id, user_id, raw_ts, video_id, raw_status, raw_bytes = fields[:6]
    try:
        timestamp = int(raw_ts)
        status_code = int(raw_status)
        bytes_sent = int(raw_bytes)
    except ValueError:
        raise LogParseError(
            f"non-numeric timestamp, status or bytes in {fields[:6]!r}", line_number
        ) from None
    try:
        _check_record(client_id, timestamp, video_id, bytes_sent)
    except ValueError as exc:
        raise LogParseError(str(exc), line_number) from None
    return client_id, user_id, timestamp, video_id, status_code, bytes_sent


def parse_log_lines(lines: Iterable[str], *, delimiter: str | None = None) -> list:
    """Parse a whole log into `workload.LogRecord`s; blank and '#' comment lines are skipped."""
    from .workload import LogRecord

    records = []
    for number, line in enumerate(lines, 1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            records.append(LogRecord(*_fields(stripped, number, delimiter)))
    return records


def parse_log_file(path, *, delimiter: str | None = None) -> list:
    # utf-8-sig drops a leading byte-order mark, which would otherwise
    # stick to the first field of the first line.
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_log_lines(handle, delimiter=delimiter)


def iter_events(
    lines: Iterable[str], *, delimiter: str | None = None
) -> Iterator[tuple[str, int, str]]:
    """Validate every line of a log and yield the events of status 200.

    Each event is a `(client_id, timestamp, video_id)` tuple of the
    line's fields as split. The events are equal to
    `preprocess(parse_log_lines(lines, delimiter=delimiter))`, with the
    same errors and line numbers, but no LogRecord is built. A bad line
    raises its LogParseError when the reader reaches it, after the
    events of the lines before it.
    """
    # Whitespace lines first try a fast path. `line.split()` splits on the
    # same whitespace that `line.strip()` removes and never yields an empty
    # id, so every six-field line that passes here is one `_fields` accepts.
    # The bytes field passes as at most 640 decimal digits, which parse as a
    # non-negative int under every `sys.set_int_max_str_digits` limit (640 is
    # the lowest allowed), so it is checked without being parsed. CSV lines
    # and every line the fast path leaves (blank, comment, longer and
    # malformed lines, and other spellings of the bytes) take the shared
    # step below it, which skips blank and comment lines and keeps the line
    # or raises its error.
    for number, line in enumerate(lines, 1):
        if not delimiter:
            try:
                client_id, _, raw_ts, video_id, raw_status, raw_bytes = line.split()
                if client_id[0] != "#":
                    timestamp = int(raw_ts)
                    if (0 <= timestamp <= MAX_TIMESTAMP and raw_bytes.isdecimal()
                            and len(raw_bytes) <= 640):
                        if raw_status == "200" or int(raw_status) == 200:
                            yield client_id, timestamp, video_id
                        continue
            except ValueError:
                pass
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            continue
        client_id, _, timestamp, video_id, status_code, _ = _fields(stripped, number, delimiter)
        if status_code == 200:
            yield client_id, timestamp, video_id


def preprocess(records: Iterable) -> list[AccessEvent]:
    """Keep the `workload.LogRecord`s of status 200 and drop unused fields."""
    return [
        AccessEvent(rec.client_id, rec.timestamp, rec.video_id)
        for rec in records
        if rec.status_code == 200
    ]


def segment_sessions(
    events: Iterable[tuple[str, int, str]], maximum_idle_time: int = DEFAULT_MAX_IDLE_SECONDS
) -> list[Session]:
    """Split each client's event stream into sessions.

    `events` yields `(client_id, timestamp, video_id)` triples, such as
    AccessEvents or the tuples of `iter_events`, and is read once. A gap
    longer than `maximum_idle_time` seconds between consecutive events
    closes the current session; a gap exactly equal to it does not. Equal
    timestamps keep their input order. Sessions are sorted by (client_id,
    start). They slice one int64 `array("q")` of timestamps per client
    (ValueError for one outside int64) and hold one string per client
    and per distinct video id, whatever fed them.
    """
    if maximum_idle_time <= 0:
        raise ValueError("maximum_idle_time must be positive")
    by_client: dict[str, tuple[array[int], list[str]]] = {}
    ids: dict[str, str] = {}
    intern = ids.setdefault
    for client_id, timestamp, video_id in events:
        try:
            stamps, videos = by_client[client_id]
        except KeyError:
            stamps, videos = by_client[client_id] = array("q"), []
        try:
            stamps.append(timestamp)
        except OverflowError:
            raise ValueError(f"timestamp {timestamp} outside the int64 range") from None
        videos.append(intern(video_id, video_id))
    sessions = []
    for client_id in sorted(by_client):
        # Popped, so each client's columns are freed once its sessions hold
        # their slices.
        stamps, videos = by_client.pop(client_id)
        gaps = list(map(sub, stamps[1:], stamps))
        if min(gaps, default=0) < 0:
            # A stable sort, so equal timestamps keep their input order.
            stamps, videos = zip(*sorted(zip(stamps, videos), key=itemgetter(0)))
            stamps = array("q", stamps)
            gaps = list(map(sub, stamps[1:], stamps))
        videos = tuple(videos)
        # Event i starts a new session when the gap before it is too long.
        start = 0
        for cut in compress(count(1), map(gt, gaps, repeat(maximum_idle_time))):
            sessions.append(Session(client_id, stamps[start:cut], videos[start:cut]))
            start = cut
        sessions.append(Session(client_id, stamps[start:], videos[start:]))
    return sessions


def group_sessions_by_window(
    sessions: Iterable[Session], window_spacing: int
) -> list[list[Session]]:
    """Bucket sessions into fixed-width windows keyed by session start.

    Buckets are aligned to multiples of `window_spacing` since the epoch
    (UTC days for 86400), so the split does not depend on which sessions
    happen to be present. Leading and trailing empty windows are dropped,
    interior empty windows are kept. Within a window, sessions are sorted
    by (client_id, start).
    """
    if window_spacing <= 0:
        raise ValueError("window_spacing must be positive")
    keyed = [(session.start // window_spacing, session) for session in sessions]
    if not keyed:
        return []
    low = min(key for key, _ in keyed)
    high = max(key for key, _ in keyed)
    windows: list[list[Session]] = [[] for _ in range(high - low + 1)]
    for key, session in keyed:
        windows[key - low].append(session)
    for window in windows:
        window.sort(key=attrgetter("client_id", "start"))
    return windows
