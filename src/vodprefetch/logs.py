"""Web-log ingestion: record parsing, filtering and session segmentation."""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

if TYPE_CHECKING:
    from .workload import LogRecord

DEFAULT_MAX_IDLE_SECONDS = 1800
DEFAULT_STATUS_FILTER = frozenset({200})


class LogParseError(ValueError):
    """Malformed log line; remembers the 1-based line number."""

    def __init__(self, message: str, line_number: int) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _check_record(client_id: str, timestamp: int, video_id: str, bytes_sent: int) -> None:
    """Raise ValueError unless the ids are non-empty and the numbers non-negative."""
    if not client_id or not video_id:
        raise ValueError("client_id and video_id must be non-empty")
    if timestamp < 0:
        raise ValueError(f"negative timestamp {timestamp}")
    if bytes_sent < 0:
        raise ValueError(f"negative bytes_sent {bytes_sent}")


class AccessEvent(NamedTuple):
    """Reduced request record: client, time and video."""

    client_id: str
    timestamp: int
    video_id: str


class Session(NamedTuple):
    """A client's maximal run of events with bounded think time.

    `events` is non-empty and in time order; `start` and `end` are the
    timestamps of its first and last event.
    """

    client_id: str
    events: tuple[AccessEvent, ...]

    @property
    def start(self) -> int:
        return self.events[0].timestamp

    @property
    def end(self) -> int:
        return self.events[-1].timestamp


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


def _read_lines(
    lines: Iterable[str], delimiter: str | None
) -> Iterator[tuple[str, str, int, str, int, int]]:
    """Validated fields of every line; blank lines and '#' comment lines are skipped."""
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield _fields(stripped, number, delimiter)


def parse_log_lines(lines: Iterable[str], *, delimiter: str | None = None) -> list[LogRecord]:
    """Parse a whole log; blank lines and '#' comment lines are skipped."""
    from .workload import LogRecord

    return [LogRecord(*fields) for fields in _read_lines(lines, delimiter)]


def parse_log_file(path, *, delimiter: str | None = None) -> list[LogRecord]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_log_lines(handle, delimiter=delimiter)


def read_events(
    lines: Iterable[str],
    *,
    delimiter: str | None = None,
    status_filter: frozenset[int] | set[int] = DEFAULT_STATUS_FILTER,
) -> list[AccessEvent]:
    """Validate every line of a log and keep the events whose status passes.

    Equal to `preprocess(parse_log_lines(lines, delimiter=delimiter),
    status_filter)`, with the same errors, but builds no LogRecord, and
    each distinct client or video id string is stored once.
    """
    ids: dict[str, str] = {}
    intern = ids.setdefault
    return [
        AccessEvent(intern(client_id, client_id), timestamp, intern(video_id, video_id))
        for client_id, _, timestamp, video_id, status_code, _ in _read_lines(lines, delimiter)
        if status_code in status_filter
    ]


def preprocess(
    records: Iterable[LogRecord],
    status_filter: frozenset[int] | set[int] = DEFAULT_STATUS_FILTER,
) -> list[AccessEvent]:
    """Keep requests whose status passes the filter and drop unused fields."""
    return [
        AccessEvent(rec.client_id, rec.timestamp, rec.video_id)
        for rec in records
        if rec.status_code in status_filter
    ]


def segment_sessions(
    events: Iterable[AccessEvent], maximum_idle_time: int = DEFAULT_MAX_IDLE_SECONDS
) -> list[Session]:
    """Split each client's event stream into sessions.

    A gap strictly greater than `maximum_idle_time` seconds between
    consecutive events closes the current session; a gap exactly equal to
    it does not. Events with equal timestamps keep their input order.
    Sessions are returned sorted by (client_id, start).
    """
    if maximum_idle_time <= 0:
        raise ValueError("maximum_idle_time must be positive")
    by_client: dict[str, list[AccessEvent]] = {}
    for event in events:
        by_client.setdefault(event.client_id, []).append(event)
    sessions = []
    for client_id in sorted(by_client):
        ordered = sorted(by_client[client_id], key=attrgetter("timestamp"))
        run: list[AccessEvent] = []
        for event in ordered:
            if run and event.timestamp - run[-1].timestamp > maximum_idle_time:
                sessions.append(Session(client_id, tuple(run)))
                run = []
            run.append(event)
        if run:
            sessions.append(Session(client_id, tuple(run)))
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
