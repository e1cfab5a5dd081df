"""Synthetic trace generator with planted client groups.

Clients belong to interest groups, each group owns a video catalog, and
every client visits once per session window: a burst of Zipf-distributed
requests aimed at the client's own catalog with probability in_group_prob
and at an hour-weighted other catalog otherwise. The planted partition is
returned alongside the records so recovery can be scored.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from itertools import accumulate

from .fileio import atomic_write
from .logs import DEFAULT_WINDOW_SPACING, _check_record

# One visit never spreads wider than requests * MAX_STEP_SECONDS, which
# both keeps it inside its window and keeps it a single session at the
# default 1800 s idle bound.
MAX_STEP_SECONDS = 30
BYTES_RANGE = (100_000, 4_000_000)

LOG_HEADER = "# client_id user_id timestamp video_id status_code bytes_sent"
GROUND_TRUTH_HEADER = "client_id,group_id"


@dataclass(frozen=True)
class LogRecord:
    """One raw request: who asked for which video, when, and how it went.

    Defined here, by its producer; `logs.parse_log_lines` builds it on
    demand, and a replay run reads events without it. It stays a dataclass
    because callers, such as the benchmark's trace writer, derive records
    with dataclasses.replace.
    """

    client_id: str
    user_id: str
    timestamp: int
    video_id: str
    status_code: int
    bytes_sent: int

    def __post_init__(self) -> None:
        _check_record(self.client_id, self.timestamp, self.video_id, self.bytes_sent)


@dataclass(frozen=True)
class WorkloadConfig:
    num_clients: int = 50
    num_videos: int = 200
    num_groups: int = 5
    in_group_prob: float = 0.9
    zipf_exponent: float = 0.8
    requests_min: int = 140
    requests_max: int = 160
    num_session_windows: int = 3
    window_spacing: int = DEFAULT_WINDOW_SPACING
    shared_pool: int = 0
    category_schedule: Mapping[int, tuple[float, ...]] = field(default_factory=dict)
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_clients < 1 or self.num_videos < 1:
            raise ValueError("need at least one client and one video")
        if not 1 <= self.num_groups <= self.num_clients:
            raise ValueError(
                f"num_groups must be in [1, num_clients], got {self.num_groups}"
            )
        if not 0.0 <= self.in_group_prob <= 1.0:
            raise ValueError(f"in_group_prob must be in [0, 1], got {self.in_group_prob}")
        if not (self.zipf_exponent > 0.0 and math.isfinite(self.zipf_exponent)):
            raise ValueError(
                f"zipf_exponent must be positive and finite, got {self.zipf_exponent}"
            )
        if not 1 <= self.requests_min <= self.requests_max:
            raise ValueError(
                f"bad request range [{self.requests_min}, {self.requests_max}]"
            )
        if self.num_session_windows < 1:
            raise ValueError("num_session_windows must be >= 1")
        if self.window_spacing < 1:
            raise ValueError("window_spacing must be >= 1")
        if not 0 <= self.shared_pool <= self.num_videos:
            raise ValueError(f"shared_pool must be in [0, num_videos], got {self.shared_pool}")
        for hour, multipliers in self.category_schedule.items():
            if not 0 <= hour <= 23:
                raise ValueError(f"schedule hour {hour} outside [0, 23]")
            if len(multipliers) != self.num_groups:
                raise ValueError(
                    f"schedule for hour {hour} has {len(multipliers)} multipliers, "
                    f"expected {self.num_groups}"
                )
            if not all(m >= 0 and math.isfinite(m) for m in multipliers):
                raise ValueError(f"schedule hour {hour} has a negative or non-finite multiplier")


@dataclass(frozen=True)
class GroundTruth:
    """Planted structure: client to group, group to catalog (hot rank first)."""

    group_of: Mapping[str, int]
    catalogs: Mapping[int, tuple[str, ...]]


def validate_feasibility(config: WorkloadConfig) -> None:
    """Reject configs that cannot produce the promised structure."""
    span_cap = config.requests_max * MAX_STEP_SECONDS
    if config.window_spacing <= span_cap:
        raise ValueError(
            f"window_spacing {config.window_spacing} cannot hold a visit of up to "
            f"{config.requests_max} requests (needs > {span_cap})"
        )
    if config.shared_pool == 0 and config.num_videos < config.num_groups:
        raise ValueError(
            f"{config.num_videos} videos cannot fill {config.num_groups} exclusive catalogs"
        )


def plant_ground_truth(config: WorkloadConfig) -> GroundTruth:
    """Deterministic group membership and catalogs for a config.

    Clients split into contiguous near-equal groups. The optional shared
    pool sits at the front (hottest ranks) of every catalog; the remaining
    videos are divided into disjoint contiguous slices.
    """
    validate_feasibility(config)
    video_width = len(str(config.num_videos - 1))
    client_width = len(str(config.num_clients - 1))
    videos = [f"v{i:0{video_width}d}" for i in range(config.num_videos)]
    clients = [f"c{i:0{client_width}d}" for i in range(config.num_clients)]
    shared = tuple(videos[: config.shared_pool])
    rest = videos[config.shared_pool :]
    group_of = {
        client: index * config.num_groups // config.num_clients
        for index, client in enumerate(clients)
    }
    base_size, leftover = divmod(len(rest), config.num_groups)
    catalogs: dict[int, tuple[str, ...]] = {}
    cursor = 0
    for group in range(config.num_groups):
        size = base_size + (1 if group < leftover else 0)
        catalogs[group] = shared + tuple(rest[cursor : cursor + size])
        cursor += size
    return GroundTruth(group_of, catalogs)


def _pick_other_group(
    rng: random.Random, own: int, config: WorkloadConfig, hour: int
) -> int:
    others = [g for g in range(config.num_groups) if g != own]
    multipliers = config.category_schedule.get(hour)
    if multipliers is not None:
        weights = [multipliers[g] for g in others]
        if sum(weights) > 0.0:
            return rng.choices(others, weights)[0]
    return rng.choice(others)


def generate(config: WorkloadConfig) -> tuple[list[LogRecord], GroundTruth]:
    """Produce a sorted synthetic trace and its planted ground truth.

    Identical configs (seed included) produce identical records.
    """
    truth = plant_ground_truth(config)
    # One cumulative Zipf table per catalog (rank r weighs r ** -zipf_exponent),
    # searched with the draw random.choices(catalog, cum_weights=cum) makes;
    # calling choices itself per request makes generation about 25% slower.
    cumulative = {
        group: list(accumulate(r ** -config.zipf_exponent for r in range(1, len(catalog) + 1)))
        for group, catalog in truth.catalogs.items()
    }
    rng = random.Random(config.seed)
    span_cap = config.requests_max * MAX_STEP_SECONDS
    records: list[LogRecord] = []
    clients = sorted(truth.group_of)
    for window in range(config.num_session_windows):
        window_start = window * config.window_spacing
        for client in clients:
            own = truth.group_of[client]
            count = rng.randint(config.requests_min, config.requests_max)
            stamp = window_start + rng.randrange(config.window_spacing - span_cap)
            for _ in range(count):
                group = own
                if config.num_groups > 1 and rng.random() >= config.in_group_prob:
                    group = _pick_other_group(rng, own, config, (stamp // 3600) % 24)
                cum = cumulative[group]
                video = truth.catalogs[group][
                    bisect_right(cum, rng.random() * cum[-1], 0, len(cum) - 1)
                ]
                size = rng.randrange(*BYTES_RANGE)
                records.append(
                    LogRecord(client, "u" + client[1:], stamp, video, 200, size)
                )
                stamp += rng.randint(1, MAX_STEP_SECONDS)
    records.sort(key=lambda record: record.timestamp)
    return records, truth


def render_trace_log(records: Iterable[LogRecord]) -> str:
    lines = [LOG_HEADER]
    lines.extend(
        f"{r.client_id} {r.user_id} {r.timestamp} {r.video_id} {r.status_code} {r.bytes_sent}"
        for r in records
    )
    return "\n".join(lines) + "\n"


def write_trace_log(records, path) -> None:
    atomic_write(path, render_trace_log(records))


def render_ground_truth(truth: GroundTruth) -> str:
    lines = [GROUND_TRUTH_HEADER]
    for client in sorted(truth.group_of):
        lines.append(f"{client},{truth.group_of[client]}")
    return "\n".join(lines) + "\n"


def write_ground_truth(truth: GroundTruth, path) -> None:
    atomic_write(path, render_ground_truth(truth))
