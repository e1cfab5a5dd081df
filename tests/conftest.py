from __future__ import annotations

import sys
from array import array
from pathlib import Path

from vodprefetch.logs import AccessEvent, Session

sys.path.insert(0, str(Path(__file__).parent))


def make_event(client: str, ts: int, video: str) -> AccessEvent:
    return AccessEvent(client, ts, video)


def make_session(client: str, requests: list[tuple[int, str]]) -> Session:
    return Session(
        client, array("q", [ts for ts, _ in requests]), tuple(video for _, video in requests)
    )
