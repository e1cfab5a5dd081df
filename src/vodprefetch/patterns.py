"""URL base vector and per-session binary request patterns."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .fileio import atomic_write
from .logs import AccessEvent, Session

DEFAULT_FREQ_THRESHOLD = 2


class UnknownVideoError(ValueError):
    """A session referenced a video the base vector does not know."""

    def __init__(self, video_id: str) -> None:
        super().__init__(f"video {video_id!r} is not in the base vector")
        self.video_id = video_id


class BaseVector(NamedTuple):
    """Ordered universe of distinct video URLs; URL i is pattern bit i.

    Build one with from_urls, which rejects duplicates.
    """

    urls: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.urls)

    @staticmethod
    def from_urls(urls: Iterable[str]) -> "BaseVector":
        ordered = tuple(urls)
        if len(set(ordered)) != len(ordered):
            raise ValueError("base vector URLs must be distinct")
        return BaseVector(ordered)


def build_base_vector(corpus: Sequence[AccessEvent | Session]) -> BaseVector:
    """Sorted distinct video ids of the corpus; stable under reordering.

    The corpus is a sequence of events or of sessions: each item's
    `videos` are the video ids it requested.
    """
    if not corpus:
        raise ValueError("cannot build a base vector from an empty corpus")
    videos: set[str] = set()
    for item in corpus:
        videos.update(item.videos)
    return BaseVector.from_urls(sorted(videos))


class PatternVector(NamedTuple):
    """Binary request pattern of one session."""

    client_id: str
    bits: tuple[int, ...]


def patterns_for_sessions(
    sessions: Iterable[Session],
    base: BaseVector,
    freq_threshold: int = DEFAULT_FREQ_THRESHOLD,
) -> tuple[list[PatternVector], int]:
    """Extract one pattern per session, dropping all-zero patterns.

    A session's pattern sets bit i when URL i was requested at least
    freq_threshold times in it. Returns the kept patterns in input order
    plus the dropped count; all-zero rows carry no signal and the
    clustering engine rejects them.
    """
    if freq_threshold < 1:
        raise ValueError("freq_threshold must be >= 1")
    index_of = {url: i for i, url in enumerate(base.urls)}
    size = base.size
    kept: list[PatternVector] = []
    dropped = 0
    for session in sessions:
        bits = [0] * size
        for video_id, count in Counter(session.videos).items():
            index = index_of.get(video_id)
            if index is None:
                raise UnknownVideoError(video_id)
            if count >= freq_threshold:
                bits[index] = 1
        if 1 in bits:
            kept.append(PatternVector(session.client_id, tuple(bits)))
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
