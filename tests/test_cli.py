from __future__ import annotations

import logging
from pathlib import Path

import pytest

from vodprefetch.art1 import load_snapshot, render_snapshot
from vodprefetch.cli import (
    EXIT_CAPACITY,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    SweepPoint,
    UsageError,
    _load_config_file,
    _parse_float_list,
    _parse_hour_key,
    main,
    render_cluster_counts,
    sweep_vigilance,
)
from vodprefetch.workload import WorkloadConfig, generate, write_trace_log

OUTPUT_FILES = (
    "trace.log",
    "ground_truth.csv",
    "metrics.csv",
    "cluster_counts.csv",
    "network.snapshot",
)

SMALL_INI = """\
[experiment]
seed = 3

[workload]
num_clients = 10
num_videos = 20
num_groups = 2
requests_min = 20
requests_max = 30
num_session_windows = 2
"""


def write_ini(tmp_path, text=SMALL_INI, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# --- helpers and parsing units ---


def test_parse_float_list_accepts_commas_and_spaces():
    assert _parse_float_list("0.3, 0.5") == (0.3, 0.5)
    assert _parse_float_list("0.3 0.5") == (0.3, 0.5)


def test_parse_float_list_rejects_garbage():
    with pytest.raises(UsageError):
        _parse_float_list("0.3, x")
    with pytest.raises(UsageError):
        _parse_float_list("  ")


def test_parse_hour_key_single_and_range():
    assert _parse_hour_key("7") == [7]
    assert _parse_hour_key("18-20") == [18, 19, 20]


@pytest.mark.parametrize("key", ["24", "20-18", "7-25", "evening"])
def test_parse_hour_key_rejects(key):
    with pytest.raises(UsageError):
        _parse_hour_key(key)


def test_sweep_records_capacity_per_point():
    patterns = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    points = sweep_vigilance(
        patterns, (0.0, 1.0), input_dim=3, max_clusters=1, max_epochs=5
    )
    assert points[0] == SweepPoint(0.0, 1)
    assert points[1].clusters is None and points[1].error is not None


def test_render_cluster_counts_skips_errors():
    points = [SweepPoint(0.3, 4), SweepPoint(0.5, None, "out of clusters")]
    assert render_cluster_counts(points) == "vigilance,clusters\n0.3,4\n"


def test_example_config_loads():
    config = _load_config_file(str(Path(__file__).parents[1] / "configs" / "example.ini"))
    assert config.workload == WorkloadConfig(
        num_clients=50,
        num_videos=200,
        num_groups=5,
        in_group_prob=0.9,
        zipf_exponent=0.8,
        requests_min=140,
        requests_max=160,
        num_session_windows=3,
        shared_pool=0,
        category_schedule={hour: (4.0, 1.0, 1.0, 1.0, 1.0) for hour in (18, 19, 20)},
        seed=7,
        window_spacing=86400,
    )


def test_unknown_workload_key_is_usage_error(tmp_path, capsys):
    ini = write_ini(tmp_path, SMALL_INI.replace("num_clients", "num_client"))
    assert main(["--config", ini, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "'num_client'" in capsys.readouterr().err


# --- end-to-end runs ---


def test_default_generated_run(tmp_path):
    out = tmp_path / "out"
    code = main(["--config", write_ini(tmp_path), "--out", str(out)])
    assert code == EXIT_OK
    for name in OUTPUT_FILES:
        assert (out / name).exists(), name

    counts = (out / "cluster_counts.csv").read_text().splitlines()
    assert counts[0] == "vigilance,clusters"
    assert len(counts) == 7  # six sweep grid values by default

    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "window,cluster,members,prefetched,hits,accuracy"
    assert len(metrics) > 1

    net = load_snapshot(out / "network.snapshot")
    assert render_snapshot(net) == (out / "network.snapshot").read_text()


def test_reruns_are_byte_identical(tmp_path):
    ini = write_ini(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", ini, "--out", str(out_a)]) == EXIT_OK
    assert main(["--config", ini, "--out", str(out_b)]) == EXIT_OK
    for name in OUTPUT_FILES:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_seed_flag_overrides_config(tmp_path):
    ini = write_ini(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", ini, "--out", str(out_a)]) == EXIT_OK
    assert main(["--config", ini, "--out", str(out_b), "--seed", "99"]) == EXIT_OK
    assert (out_a / "trace.log").read_bytes() != (out_b / "trace.log").read_bytes()


def test_sweep_flag_sets_grid(tmp_path):
    out = tmp_path / "out"
    code = main(["--config", write_ini(tmp_path), "--out", str(out), "--sweep", "0.2,0.9"])
    assert code == EXIT_OK
    lines = (out / "cluster_counts.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("0.2,") and lines[2].startswith("0.9,")


def test_dump_patterns_flag(tmp_path):
    out = tmp_path / "out"
    code = main(["--config", write_ini(tmp_path), "--out", str(out), "--dump-patterns"])
    assert code == EXIT_OK
    lines = (out / "patterns.csv").read_text().splitlines()
    assert lines[0].split(",")[0].startswith("v")
    assert set(lines[1].split(",")) <= {"0", "1"}


def test_single_window_skips_metrics(tmp_path):
    ini = write_ini(
        tmp_path,
        SMALL_INI.replace("num_session_windows = 2", "num_session_windows = 1"),
    )
    out = tmp_path / "out"
    assert main(["--config", ini, "--out", str(out)]) == EXIT_OK
    assert (out / "metrics.csv").read_text() == "window,cluster,members,prefetched,hits,accuracy\n"


def test_schedule_section_parses(tmp_path):
    ini = write_ini(
        tmp_path,
        SMALL_INI + "\n[schedule]\n18-20 = 3.0, 1.0\n7 = 1.0 1.0\n",
    )
    out = tmp_path / "out"
    assert main(["--config", ini, "--out", str(out)]) == EXIT_OK


def test_replay_whitespace_log(tmp_path):
    records, _ = generate(
        WorkloadConfig(
            num_clients=8,
            num_videos=16,
            num_groups=2,
            requests_min=20,
            requests_max=30,
            num_session_windows=2,
            seed=5,
        )
    )
    trace = tmp_path / "trace.log"
    write_trace_log(records, trace)
    out = tmp_path / "out"
    assert main(["--input", str(trace), "--out", str(out)]) == EXIT_OK
    assert not (out / "trace.log").exists()  # replay mode writes no trace
    assert (out / "metrics.csv").exists()


def test_replay_of_generated_trace_gives_same_outputs(tmp_path):
    generated, replayed = tmp_path / "generated", tmp_path / "replayed"
    assert main(["--config", write_ini(tmp_path), "--out", str(generated)]) == EXIT_OK
    trace = generated / "trace.log"
    assert main(["--input", str(trace), "--out", str(replayed)]) == EXIT_OK
    for name in ("metrics.csv", "cluster_counts.csv", "network.snapshot"):
        assert (generated / name).read_bytes() == (replayed / name).read_bytes(), name


def test_replay_csv_log(tmp_path):
    records, _ = generate(
        WorkloadConfig(
            num_clients=6,
            num_videos=12,
            num_groups=2,
            requests_min=20,
            requests_max=25,
            num_session_windows=2,
            seed=6,
        )
    )
    lines = [
        f"{r.client_id},{r.user_id},{r.timestamp},{r.video_id},{r.status_code},{r.bytes_sent}"
        for r in records
    ]
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--input", str(trace), "--csv", "--out", str(out)]) == EXIT_OK


# --- exit codes ---


def test_unknown_flag_is_usage_error(capsys):
    assert main(["--nope"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_bad_vigilance_is_usage_error(tmp_path):
    assert main(["--out", str(tmp_path), "--vigilance", "1.5"]) == EXIT_USAGE


def test_missing_config_is_usage_error(tmp_path):
    assert main(["--config", str(tmp_path / "missing.ini")]) == EXIT_USAGE


def test_infeasible_spacing_is_usage_error(tmp_path):
    ini = write_ini(tmp_path)
    assert main(["--config", ini, "--out", str(tmp_path), "--window-spacing", "100"]) == EXIT_USAGE


def test_missing_input_is_data_error(tmp_path, capsys):
    code = main(["--input", str(tmp_path / "nope.log"), "--out", str(tmp_path)])
    assert code == EXIT_DATA
    assert "cannot read" in capsys.readouterr().err


def test_non_utf8_input_is_data_error(tmp_path, capsys):
    trace = tmp_path / "latin.log"
    trace.write_bytes(b"c1 u1 100 v\xff 200 100\n")
    assert main(["--input", str(trace), "--out", str(tmp_path / "out")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {trace}: ")
    assert "Traceback" not in err


def test_non_utf8_config_is_usage_error(tmp_path, capsys):
    ini = tmp_path / "latin.ini"
    ini.write_bytes(b"[experiment]\nseed = 3 # \xff\n")
    assert main(["--config", str(ini), "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {ini}: ")
    assert "Traceback" not in err


def test_malformed_input_is_data_error(tmp_path, capsys):
    trace = tmp_path / "bad.log"
    trace.write_text("c1 u1 notatimestamp v1 200 100\n", encoding="utf-8")
    assert main(["--input", str(trace), "--out", str(tmp_path)]) == EXIT_DATA
    assert "line 1" in capsys.readouterr().err


def test_no_usable_events_is_data_error(tmp_path):
    trace = tmp_path / "misses.log"
    trace.write_text("c1 u1 100 v1 404 100\nc1 u1 120 v1 500 100\n", encoding="utf-8")
    assert main(["--input", str(trace), "--out", str(tmp_path)]) == EXIT_DATA


def test_nothing_clears_threshold_is_data_error(tmp_path):
    # every video seen once per session, below the default threshold of 2
    trace = tmp_path / "thin.log"
    trace.write_text("c1 u1 100 v1 200 100\nc1 u1 120 v2 200 100\n", encoding="utf-8")
    assert main(["--input", str(trace), "--out", str(tmp_path)]) == EXIT_DATA


def test_capacity_exhaustion_is_exit_three(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["--config", write_ini(tmp_path), "--out", str(out),
         "--max-clusters", "1", "--sweep", "0 0.5"]
    )
    assert code == EXIT_CAPACITY
    # the grid point that fit still lands in the csv
    lines = (out / "cluster_counts.csv").read_text().splitlines()
    assert lines == ["vigilance,clusters", "0,1"]


def test_window_capacity_error_keeps_other_windows(tmp_path, caplog):
    # Four daily windows, one-window history, one cluster: window 1 has two
    # disjoint patterns and runs out of clusters, windows 0 and 2 do not.
    days = [[("a", "v1")], [("a", "v1"), ("b", "v2")], [("a", "v1")], [("a", "v1")]]
    lines = [
        f"{client} u1 {d * 86400 + offset} {video} 200 100"
        for d, requests in enumerate(days)
        for client, video in requests
        for offset in (10, 20)
    ]
    trace = tmp_path / "trace.log"
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(
        ["--input", str(trace), "--out", str(out), "--history-windows", "1",
         "--max-clusters", "1", "--vigilance", "0.9", "--sweep", "0"]
    )
    assert code == EXIT_CAPACITY
    rows = (out / "metrics.csv").read_text().splitlines()
    assert rows[0] == "window,cluster,members,prefetched,hits,accuracy"
    assert [row.split(",")[0] for row in rows[1:]] == ["0", "2"]
    assert "window 1: prefetch evaluation ran out of clusters" in caplog.text


def test_force_assign_recovers_capacity(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["--config", write_ini(tmp_path), "--out", str(out),
         "--max-clusters", "1", "--sweep", "0 0.5", "--force-assign"]
    )
    assert code == EXIT_OK
    lines = (out / "cluster_counts.csv").read_text().splitlines()
    assert lines == ["vigilance,clusters", "0,1", "0.5,1"]


def test_unconverged_trainings_warn_once_each(tmp_path, caplog):
    out = tmp_path / "out"
    code = main(["--config", write_ini(tmp_path), "--out", str(out), "--max-epochs", "1"])
    assert code == EXIT_OK
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    # two windows give one sliding training; the default grid has six points
    assert sorted(warnings) == sorted(
        ["window 0: training did not converge in 1 epochs"]
        + [
            f"vigilance {value:g}: training did not converge in 1 epochs"
            for value in (0.30, 0.35, 0.40, 0.45, 0.475, 0.50)
        ]
    )


def test_converged_run_logs_no_warning(tmp_path, caplog):
    out = tmp_path / "out"
    assert main(["--config", write_ini(tmp_path), "--out", str(out)]) == EXIT_OK
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
