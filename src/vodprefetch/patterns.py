"""URL base vector and per-session binary request patterns."""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .fileio import atomic_write
from .logs import AccessEvent, Session

DEFAULT_FREQ_THRESHOLD = 2


class UnknownVideoError(ValueError):
    """A session referenced a video the base vector does not know."""

    def __init__(self, video_id: str) -> None:
        super().__init__(f"video {video_id!r} is not in the base vector")
        self.video_id = video_id


class BaseVector(NamedTuple):
    """Ordered universe of video URLs; defines the pattern index space.

    `index_of` maps each URL to its position; build one with from_urls.
    """

    urls: tuple[str, ...]
    index_of: Mapping[str, int]

    @property
    def size(self) -> int:
        return len(self.urls)

    @staticmethod
    def from_urls(urls: Iterable[str]) -> "BaseVector":
        ordered = tuple(urls)
        index = {url: i for i, url in enumerate(ordered)}
        if len(index) != len(ordered):
            raise ValueError("base vector URLs must be distinct")
        return BaseVector(ordered, index)


def build_base_vector(events: Sequence[AccessEvent]) -> BaseVector:
    """Sorted distinct video ids of the corpus; stable under reordering."""
    if not events:
        raise ValueError("cannot build a base vector from an empty corpus")
    return BaseVector.from_urls(sorted({event.video_id for event in events}))


class PatternVector(NamedTuple):
    """Binary request pattern of one session."""

    client_id: str
    bits: tuple[int, ...]


def extract_pattern(
    session: Session, base: BaseVector, freq_threshold: int = DEFAULT_FREQ_THRESHOLD
) -> PatternVector:
    """Set bit i when URL i was requested at least freq_threshold times."""
    if freq_threshold < 1:
        raise ValueError("freq_threshold must be >= 1")
    counts = Counter(map(attrgetter("video_id"), session.events))
    bits = [0] * base.size
    for video_id, count in counts.items():
        index = base.index_of.get(video_id)
        if index is None:
            raise UnknownVideoError(video_id)
        if count >= freq_threshold:
            bits[index] = 1
    return PatternVector(session.client_id, tuple(bits))


def patterns_for_sessions(
    sessions: Iterable[Session],
    base: BaseVector,
    freq_threshold: int = DEFAULT_FREQ_THRESHOLD,
) -> tuple[list[PatternVector], int]:
    """Extract one pattern per session, dropping all-zero patterns.

    Returns the kept patterns in input order plus the dropped count;
    all-zero rows carry no signal and the clustering engine rejects them.
    """
    kept: list[PatternVector] = []
    dropped = 0
    for session in sessions:
        pattern = extract_pattern(session, base, freq_threshold)
        if any(pattern.bits):
            kept.append(pattern)
        else:
            dropped += 1
    return kept, dropped


def render_pattern_matrix(patterns: Iterable[PatternVector], base: BaseVector) -> str:
    """Comma-separated matrix: URL header row, then one 0/1 row per pattern."""
    lines = [",".join(base.urls)]
    for pattern in patterns:
        if len(pattern.bits) != base.size:
            raise ValueError(
                f"pattern width {len(pattern.bits)} does not match base size {base.size}"
            )
        lines.append(",".join(str(bit) for bit in pattern.bits))
    return "\n".join(lines) + "\n"


def write_pattern_matrix(patterns, base: BaseVector, path) -> None:
    atomic_write(path, render_pattern_matrix(patterns, base))
