from __future__ import annotations

import sys
from pathlib import Path

from vodprefetch.logs import AccessEvent, Session

sys.path.insert(0, str(Path(__file__).parent))


def make_event(client: str, ts: int, video: str) -> AccessEvent:
    return AccessEvent(client, ts, video)


def make_session(client: str, requests: list[tuple[int, str]]) -> Session:
    events = tuple(make_event(client, ts, video) for ts, video in requests)
    return Session(client, events[0].timestamp, events[-1].timestamp, events)
