"""Web-log ingestion: record parsing, filtering and session segmentation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

DEFAULT_MAX_IDLE_SECONDS = 1800
DEFAULT_STATUS_FILTER = frozenset({200})


class LogParseError(ValueError):
    """Malformed log line; remembers the 1-based line number."""

    def __init__(self, message: str, line_number: int = 0) -> None:
        prefix = f"line {line_number}: " if line_number else ""
        super().__init__(prefix + message)
        self.line_number = line_number


@dataclass(frozen=True)
class LogRecord:
    """One raw request: who asked for which video, when, and how it went."""

    client_id: str
    user_id: str
    timestamp: int
    video_id: str
    status_code: int
    bytes_sent: int

    def __post_init__(self) -> None:
        if not self.client_id or not self.video_id:
            raise ValueError("client_id and video_id must be non-empty")
        if self.timestamp < 0:
            raise ValueError(f"negative timestamp {self.timestamp}")
        if self.bytes_sent < 0:
            raise ValueError(f"negative bytes_sent {self.bytes_sent}")


@dataclass(frozen=True)
class AccessEvent:
    """Reduced request record: client, time and video."""

    client_id: str
    timestamp: int
    video_id: str


@dataclass(frozen=True)
class Session:
    """A client's maximal run of events with bounded think time."""

    client_id: str
    start: int
    end: int
    events: tuple[AccessEvent, ...]

    @property
    def session_id(self) -> str:
        return f"{self.client_id}:{self.start}"


def parse_log_line(
    line: str, line_number: int = 0, *, delimiter: str | None = None
) -> LogRecord:
    """Parse one log line into a LogRecord.

    Fields in order: client_id, user_id, timestamp, video_id, status code,
    bytes sent. Extra trailing fields are ignored. The default splits on
    whitespace; pass delimiter="," for the comma-separated variant.
    """
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
        return LogRecord(client_id, user_id, timestamp, video_id, status_code, bytes_sent)
    except ValueError as exc:
        raise LogParseError(str(exc), line_number) from None


def parse_log_lines(lines: Iterable[str], *, delimiter: str | None = None) -> list[LogRecord]:
    """Parse a whole log; blank lines and '#' comment lines are skipped."""
    records = []
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        records.append(parse_log_line(stripped, number, delimiter=delimiter))
    return records


def parse_log_file(path, *, delimiter: str | None = None) -> list[LogRecord]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_log_lines(handle, delimiter=delimiter)


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
        ordered = sorted(by_client[client_id], key=lambda ev: ev.timestamp)
        run: list[AccessEvent] = []
        for event in ordered:
            if run and event.timestamp - run[-1].timestamp > maximum_idle_time:
                sessions.append(_close_session(client_id, run))
                run = []
            run.append(event)
        if run:
            sessions.append(_close_session(client_id, run))
    return sessions


def _close_session(client_id: str, run: Sequence[AccessEvent]) -> Session:
    return Session(client_id, run[0].timestamp, run[-1].timestamp, tuple(run))


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
        window.sort(key=lambda s: (s.client_id, s.start))
    return windows
