from __future__ import annotations

import hashlib
import math
import random
from collections import Counter

import pytest

from vodprefetch.logs import parse_log_lines, preprocess, segment_sessions
from vodprefetch.workload import (
    MAX_STEP_SECONDS,
    GroundTruth,
    WorkloadConfig,
    generate,
    plant_ground_truth,
    render_ground_truth,
    render_trace_log,
    validate_feasibility,
)


def small_config(**overrides):
    params = dict(
        num_clients=6,
        num_videos=12,
        num_groups=3,
        in_group_prob=1.0,
        zipf_exponent=1.0,
        requests_min=5,
        requests_max=8,
        num_session_windows=2,
        window_spacing=3600,
        seed=11,
    )
    params.update(overrides)
    return WorkloadConfig(**params)


# --- config validation ---


@pytest.mark.parametrize(
    "overrides",
    [
        {"num_clients": 0},
        {"num_groups": 0},
        {"num_groups": 7},
        {"in_group_prob": 1.5},
        {"zipf_exponent": 0.0},
        {"requests_min": 9, "requests_max": 8},
        {"num_session_windows": 0},
        {"window_spacing": 0},
        {"shared_pool": 13},
        {"category_schedule": {24: (1.0, 1.0, 1.0)}},
        {"category_schedule": {0: (1.0, 1.0)}},
        {"category_schedule": {0: (1.0, -1.0, 1.0)}},
        {"zipf_exponent": math.nan},
        {"zipf_exponent": math.inf},
        {"category_schedule": {0: (1.0, math.nan, 1.0)}},
        {"category_schedule": {0: (1.0, math.inf, 1.0)}},
    ],
)
def test_config_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        small_config(**overrides)


def test_feasibility_rejects_tight_window():
    config = small_config(window_spacing=8 * MAX_STEP_SECONDS)
    with pytest.raises(ValueError):
        validate_feasibility(config)


def test_feasibility_rejects_too_few_videos():
    config = small_config(num_clients=10, num_groups=5, num_videos=3)
    with pytest.raises(ValueError):
        validate_feasibility(config)


# --- planted structure ---


def test_plant_gives_every_group_videos_exactly_when_feasible():
    # validate_feasibility is the only guard against an empty catalog.
    for groups in range(1, 7):
        for videos in range(1, 7):
            for shared in range(videos + 1):
                config = small_config(num_groups=groups, num_videos=videos, shared_pool=shared)
                if shared == 0 and videos < groups:
                    with pytest.raises(ValueError, match="exclusive catalogs"):
                        plant_ground_truth(config)
                else:
                    truth = plant_ground_truth(config)
                    assert all(truth.catalogs[g] for g in range(groups))


def test_plant_contiguous_groups():
    truth = plant_ground_truth(small_config())
    assert truth.group_of == {
        "c0": 0, "c1": 0, "c2": 1, "c3": 1, "c4": 2, "c5": 2,
    }


def test_plant_catalogs_partition_videos():
    truth = plant_ground_truth(small_config())
    seen = [v for g in sorted(truth.catalogs) for v in truth.catalogs[g]]
    assert sorted(seen) == [f"v{i:02d}" for i in range(12)]
    assert len(set(seen)) == 12
    assert all(len(c) == 4 for c in truth.catalogs.values())


def test_plant_uneven_split_front_loads_leftover():
    truth = plant_ground_truth(small_config(num_videos=13))
    sizes = [len(truth.catalogs[g]) for g in range(3)]
    assert sizes == [5, 4, 4]


def test_plant_shared_pool_leads_every_catalog():
    truth = plant_ground_truth(small_config(shared_pool=2))
    for catalog in truth.catalogs.values():
        assert catalog[:2] == ("v00", "v01")
    exclusive = [v for c in truth.catalogs.values() for v in c[2:]]
    assert len(exclusive) == len(set(exclusive)) == 10


# --- zipf popularity ---


def _fit_slope(counts):
    points = [(math.log(r + 1), math.log(c)) for r, c in enumerate(counts) if c > 0]
    n = len(points)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def test_zipf_rank_frequency_slope_near_minus_one():
    # 10^5 requests over 200 videos at exponent 1.0 from the full pipeline,
    # cross-checked against stdlib random.choices with explicit 1/rank weights.
    config = WorkloadConfig(
        num_clients=50,
        num_videos=200,
        num_groups=1,
        in_group_prob=1.0,
        zipf_exponent=1.0,
        requests_min=2000,
        requests_max=2000,
        num_session_windows=1,
        window_spacing=2000 * MAX_STEP_SECONDS + 1,
        seed=13,
    )
    records, truth = generate(config)
    assert len(records) == 100_000
    hist = Counter(r.video_id for r in records)
    pipeline_counts = [hist.get(video, 0) for video in truth.catalogs[0]]
    pipeline_slope = _fit_slope(pipeline_counts)

    rng = random.Random(99)
    weights = [1.0 / (rank + 1) for rank in range(200)]
    independent_counts = [0] * 200
    for rank in rng.choices(range(200), weights=weights, k=100_000):
        independent_counts[rank] += 1
    independent_slope = _fit_slope(independent_counts)

    assert pipeline_slope == pytest.approx(-1.0, abs=0.1)
    assert independent_slope == pytest.approx(-1.0, abs=0.1)
    assert abs(pipeline_slope - independent_slope) < 0.05


# --- generation ---


def test_generate_deterministic_under_seed():
    config = small_config()
    first_records, first_truth = generate(config)
    second_records, second_truth = generate(config)
    assert first_records == second_records
    assert first_truth == second_truth
    assert render_trace_log(first_records) == render_trace_log(second_records)


def test_generate_seeds_differ():
    records_a, _ = generate(small_config(seed=1))
    records_b, _ = generate(small_config(seed=2))
    assert records_a != records_b


def test_generate_in_group_requests_stay_in_catalog():
    records, truth = generate(small_config(in_group_prob=1.0, seed=4))
    for record in records:
        catalog = truth.catalogs[truth.group_of[record.client_id]]
        assert record.video_id in catalog


def test_generate_timestamps_inside_window():
    config = small_config()
    records, _ = generate(config)
    for record in records:
        offset = record.timestamp % config.window_spacing
        window = record.timestamp // config.window_spacing
        assert 0 <= window < config.num_session_windows
        assert 0 <= offset < config.window_spacing


def test_generate_sorted_and_nondecreasing_per_client():
    records, _ = generate(small_config())
    stamps = [r.timestamp for r in records]
    assert stamps == sorted(stamps)
    per_client: dict[str, list[int]] = {}
    for record in records:
        per_client.setdefault(record.client_id, []).append(record.timestamp)
    for stamps in per_client.values():
        assert stamps == sorted(stamps)


def test_generate_one_session_per_client_per_window():
    # Wide spacing keeps adjacent visits more than an idle gap apart; with
    # tight spacing a late visit can legitimately merge into the next one.
    config = small_config(window_spacing=86400)
    records, _ = generate(config)
    sessions = segment_sessions(preprocess(records))
    assert len(sessions) == config.num_clients * config.num_session_windows
    counts = Counter(s.client_id for s in sessions)
    assert all(n == config.num_session_windows for n in counts.values())


def test_generate_request_counts_within_range():
    config = small_config()
    records, _ = generate(config)
    counts = Counter((r.client_id, r.timestamp // config.window_spacing) for r in records)
    assert all(config.requests_min <= n <= config.requests_max for n in counts.values())


def test_generate_user_id_mirrors_client_id():
    records, _ = generate(small_config())
    assert all(r.user_id == "u" + r.client_id[1:] for r in records)


def test_generate_rejects_infeasible_config():
    with pytest.raises(ValueError):
        generate(small_config(window_spacing=8 * MAX_STEP_SECONDS))


def test_schedule_steers_out_of_group_picks():
    # Visits land in hour 0; the schedule zeroes every group but 2, so all
    # cross-group traffic must hit catalog 2 (and group 2's spill goes
    # uniform because its own row is excluded, leaving weights 0,0).
    config = small_config(
        in_group_prob=0.0,
        requests_min=10,
        requests_max=10,
        num_session_windows=1,
        window_spacing=10 * MAX_STEP_SECONDS + 1,
        category_schedule={0: (0.0, 0.0, 1.0)},
        seed=21,
    )
    records, truth = generate(config)
    exclusive = {
        group: set(catalog) for group, catalog in truth.catalogs.items()
    }
    for record in records:
        own = truth.group_of[record.client_id]
        target = next(g for g, vids in exclusive.items() if record.video_id in vids)
        assert target != own
        if own != 2:
            assert target == 2


def test_schedule_zero_row_falls_back_to_uniform():
    config = small_config(
        in_group_prob=0.0,
        requests_min=40,
        requests_max=40,
        num_session_windows=1,
        window_spacing=40 * MAX_STEP_SECONDS + 1,
        category_schedule={0: (0.0, 0.0, 0.0)},
        seed=8,
    )
    records, truth = generate(config)
    targets = set()
    for record in records:
        if truth.group_of[record.client_id] == 0:
            target = next(
                g for g, vids in truth.catalogs.items() if record.video_id in vids
            )
            targets.add(target)
    assert targets == {1, 2}


# --- popularity ---


def test_default_config_counts_fall_in_bracket():
    records, _ = generate(WorkloadConfig())
    hist = Counter(r.video_id for r in records)
    assert min(hist.values()) >= 20
    assert max(hist.values()) <= 1600


# --- rendering ---


def test_render_ground_truth_golden():
    truth = GroundTruth({"c1": 0, "c0": 1}, {0: ("v0",), 1: ("v1",)})
    assert render_ground_truth(truth) == "client_id,group_id\nc0,1\nc1,0\n"


# sha256 of render_trace_log(generate(SCHEDULED_CONFIG)). The default run's
# golden (test_cli.DEFAULT_RUN_SHA256) has no schedule and no shared pool;
# this trace takes every cross-group branch: weighted rows (hours 0-11,
# weights exact in binary so partial sums are exact), zero rows (12-17), a
# row whose other groups all weigh zero (18-20, for group 2) and no row.
SCHEDULED_CONFIG = WorkloadConfig(
    num_clients=12,
    num_videos=30,
    num_groups=3,
    in_group_prob=0.6,
    zipf_exponent=0.9,
    requests_min=20,
    requests_max=30,
    num_session_windows=4,
    window_spacing=86400,
    shared_pool=3,
    category_schedule={
        **{hour: (4.0, 1.0, 0.5) for hour in range(0, 12)},
        **{hour: (0.0, 0.0, 0.0) for hour in range(12, 18)},
        **{hour: (0.0, 0.0, 0.5) for hour in range(18, 21)},
    },
    seed=5,
)
SCHEDULED_TRACE_SHA256 = "ae2417febfdf80d5cfac635b754fb824fd7eb75c326667cf93ee5607f438099b"


def test_scheduled_trace_matches_golden_digest():
    records, _ = generate(SCHEDULED_CONFIG)
    digest = hashlib.sha256(render_trace_log(records).encode("utf-8")).hexdigest()
    assert digest == SCHEDULED_TRACE_SHA256


def test_trace_log_round_trips_through_parser():
    records, _ = generate(small_config())
    text = render_trace_log(records)
    assert text.startswith("# client_id user_id timestamp video_id status_code")
    parsed = parse_log_lines(text.splitlines())
    assert parsed == records
