from __future__ import annotations

import gc
import hashlib
import logging
import os
import random
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

import pytest

import vodprefetch.cli as cli
import vodprefetch.prefetch as prefetch
from vodprefetch.art1 import Art1Config, init_network, train
from vodprefetch.cli import (
    EXIT_CAPACITY,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    SweepPoint,
    UsageError,
    _parse_float_list,
    _parse_hour_key,
    main,
    render_cluster_counts,
    sweep_vigilance,
)
from vodprefetch.workload import WorkloadConfig

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


@pytest.fixture
def run_configs(monkeypatch):
    """Stub cli.run; each main() call appends the config it would run."""
    configs = []
    monkeypatch.setattr(cli, "run", lambda config: configs.append(config) or EXIT_OK)
    return configs


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
    with pytest.raises(ValueError):
        _parse_hour_key(key)


def test_sweep_records_capacity_per_point():
    patterns = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    points = sweep_vigilance(
        patterns, (0.0, 1.0), input_dim=3, max_clusters=1, max_epochs=5
    )
    assert (points[0].vigilance, points[0].clusters, points[0].error) == (0.0, 1, None)
    assert points[1].clusters is None and points[1].error is not None


def test_render_cluster_counts_skips_errors():
    net = init_network(Art1Config(4, 0.3, 4))
    train(net, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    points = [SweepPoint(0.3, network=net), SweepPoint(0.5, "out of clusters")]
    assert render_cluster_counts(points) == "vigilance,clusters\n0.3,4\n"


def test_example_config_loads(run_configs):
    assert main(["--config", str(Path(__file__).parents[1] / "configs" / "example.ini")]) == EXIT_OK
    assert run_configs[0].workload == WorkloadConfig(
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


def test_config_file_may_start_with_a_byte_order_mark(tmp_path, run_configs):
    ini = write_ini(tmp_path, "\ufeff" + SMALL_INI)
    assert main(["--config", ini, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert run_configs[0].seed == 3
    assert run_configs[0].workload.num_clients == 10


def test_unknown_workload_key_is_usage_error(tmp_path, capsys):
    ini = write_ini(tmp_path, SMALL_INI.replace("num_clients", "num_client"))
    assert main(["--config", ini, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "'num_client'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, named",
    [
        (SMALL_INI + "\n[clustering]\nvigilence = 0.9\n", "unknown [clustering] key 'vigilence'"),
        (SMALL_INI.replace("seed = 3", "sed = 3"), "unknown [experiment] key 'sed'"),
        (SMALL_INI + "\n[clusterin]\nvigilance = 0.9\n", "unknown section [clusterin]"),
        ("[DEFAULT]\nvigilance = 0.9\n", "unknown section [DEFAULT]"),
        ("[DEFAULT]\nvigilance = 0.9\n[clustering]\nmax_epochs = 5\n",
         "unknown section [DEFAULT]"),
        ("[DEFAULT]\nvigilance = 0.9\n" + SMALL_INI, "unknown section [DEFAULT]"),
    ],
    ids=["clustering-key", "experiment-key", "section", "default", "default-beside-clustering",
         "default-beside-experiment"],
)
def test_unknown_config_key_or_section_is_usage_error(tmp_path, capsys, text, named):
    ini = write_ini(tmp_path, text)
    assert main(["--config", ini, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, flags, message",
    [
        (SMALL_INI, ["--sweep", ""], "error: empty sweep grid"),
        (SMALL_INI + "\n[clustering]\nsweep =\n", [],
         "error: bad config {ini}: [clustering] 'sweep' needs a list of numbers, got ''"),
    ],
    ids=["flag", "config"],
)
def test_empty_sweep_grid_is_usage_error(tmp_path, capsys, text, flags, message):
    ini = write_ini(tmp_path, text)
    argv = ["--config", ini, "--out", str(tmp_path / "out"), *flags]
    assert main(argv) == EXIT_USAGE
    assert message.format(ini=ini) in capsys.readouterr().err


# Every [experiment]/[clustering] key that takes a value: the setting it
# sets, its flag, a non-default value for the file and another for the flag.
VALUE_SETTINGS = [
    ("experiment", "source", "source", "--input", "file.log", "flag.log"),
    ("experiment", "out", "out", "--out", "file_out", "flag_out"),
    ("experiment", "seed", "seed", "--seed", 11, 12),
    ("experiment", "maximum_idle_time", "maximum_idle_time", "--session-idle", 900, 600),
    ("experiment", "freq_threshold", "freq_threshold", "--freq-threshold", 3, 4),
    ("experiment", "window_spacing", "window_spacing", "--window-spacing", 3600, 7200),
    ("experiment", "history_windows", "history_windows", "--history-windows", 2, 3),
    ("clustering", "vigilance", "vigilance", "--vigilance", 0.6, 0.7),
    ("clustering", "max_clusters", "max_clusters", "--max-clusters", 5, 6),
    ("clustering", "max_epochs", "max_epochs", "--max-epochs", 4, 5),
    ("clustering", "sweep", "sweep", "--sweep", (0.2, 0.7), (0.1, 0.9)),
]
# The keys whose flag is a switch: the setting, the switch, the value the
# switch sets and the default.
SWITCH_SETTINGS = [
    ("experiment", "format", "format", "--csv", "csv", "whitespace"),
    ("experiment", "dump_patterns", "dump_patterns", "--dump-patterns", True, False),
    ("experiment", "force_assign", "force_assign", "--force-assign", True, False),
]


def as_text(value):
    """A setting's value as a flag or an INI file spells it."""
    if isinstance(value, tuple):
        return " ".join(map(str, value))
    return str(value).lower() if isinstance(value, bool) else str(value)


def render_ini(entries):
    """INI text for (section, key, value) entries."""
    lines = []
    for section in ("experiment", "clustering"):
        lines.append(f"[{section}]")
        lines += [f"{key} = {as_text(value)}" for sec, key, value in entries if sec == section]
    return "\n".join(lines) + "\n"


def test_config_keys_are_the_settings_names():
    # A key reaches the setting of its own name, so no renaming table sits
    # between the file and the parser.
    parser = cli._build_parser()
    for keys in cli._SECTION_KEYS.values():
        for key in keys:
            assert parser.get_default(key) is not None, key


def test_flags_override_config_file_over_defaults(tmp_path, run_configs):
    on_file = [(sec, key, file) for sec, key, _, _, file, _ in VALUE_SETTINGS]
    on_file += [(sec, key, on) for sec, key, _, _, on, _ in SWITCH_SETTINGS]
    ini = write_ini(tmp_path, render_ini(on_file))
    assert main(["--config", ini]) == EXIT_OK
    for _, _, setting, _, file, _ in VALUE_SETTINGS:
        assert getattr(run_configs[-1], setting) == file, setting
    for _, _, setting, _, on, _ in SWITCH_SETTINGS:
        assert getattr(run_configs[-1], setting) == on, setting

    flags = ["--config", ini]
    for _, _, _, flag, _, value in VALUE_SETTINGS:
        flags += [flag, as_text(value)]
    assert main(flags) == EXIT_OK
    for _, _, setting, _, _, value in VALUE_SETTINGS:
        assert getattr(run_configs[-1], setting) == value, setting

    # A switch can only turn its setting on, so it overrides a file that
    # spells out the default.
    off_file = [(sec, key, default) for sec, key, _, _, _, default in SWITCH_SETTINGS]
    ini = write_ini(tmp_path, render_ini(on_file[: len(VALUE_SETTINGS)] + off_file))
    assert main(["--config", ini]) == EXIT_OK
    for _, _, setting, _, _, default in SWITCH_SETTINGS:
        assert getattr(run_configs[-1], setting) == default, setting
    assert main(["--config", ini, *[flag for _, _, _, flag, _, _ in SWITCH_SETTINGS]]) == EXIT_OK
    for _, _, setting, _, on, _ in SWITCH_SETTINGS:
        assert getattr(run_configs[-1], setting) == on, setting


# --- end-to-end runs ---


# sha256 of each output of the default run, `vodprefetch --out DIR`.
DEFAULT_RUN_SHA256 = {
    "trace.log": "ec6b6c26b2985da45d4971130e7aff0abfcf5e970dd1734ea633e4e1174c42b9",
    "ground_truth.csv": "b959fe2bd7cc3578ecb6acb72dcdc199f99b01bc6d37794eeb40c69691a5ed45",
    "metrics.csv": "cfc1976ac72e57d1cbeac870b90be4d7149df3803e354d24eff1ce58f04d028f",
    "cluster_counts.csv": "52cf4761eff600474ab845ad70c6a0b30e6147c930af086aa47e3682684a516b",
    "network.snapshot": "29337e273e9d6b174fd2944dec8548733ff41d57c58805ccd550723606e19314",
}


def test_default_run_outputs_match_golden_digests(tmp_path):
    out = tmp_path / "out"
    assert main(["--out", str(out)]) == EXIT_OK
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUT_FILES
    }
    assert digests == DEFAULT_RUN_SHA256


# A mid-scale run whose sweep grid gives 191, 272, 333, 416, 446 and 459
# clusters, where every other byte-pinned run stays at 116 or fewer. Its
# sha256s were recorded before the training engine learned to replay.
MID_SCALE_INI = """\
[workload]
num_clients = 250
num_videos = 1500
num_groups = 15
num_session_windows = 3
"""
MID_SCALE_RUN_SHA256 = {
    "trace.log": "f8ed8159fa9a57b115d8597403789e967cce8051bd8c7373a282d284721a396b",
    "metrics.csv": "d961adab37abd52c106e47fdc7240355f3dac8b4e34adc3cd21cd100a5dfe44c",
    "cluster_counts.csv": "fe3050b3cb6fa6a4fb4ed15ef79231d0fab60ae6beac603b67e229d8250ddb64",
    "network.snapshot": "616c0e2c6e7756816f56d888727e2a730a194a021ddcc0c023bae2660d96703e",
    "patterns.csv": "2d183f82da1023afc5143dbaa95306945bc72ba3dc47d7d622be78c67393c073",
}


def test_mid_scale_run_outputs_match_golden_digests(tmp_path):
    out = tmp_path / "out"
    ini = write_ini(tmp_path, MID_SCALE_INI)
    assert main(["--config", ini, "--seed", "7", "--dump-patterns", "--out", str(out)]) == EXIT_OK
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in MID_SCALE_RUN_SHA256
    }
    assert digests == MID_SCALE_RUN_SHA256


def test_example_config_outputs_do_not_depend_on_string_hashing(tmp_path):
    # The shipped example config, [schedule] included, run as a program with
    # warnings as errors under two string hash seeds; --dump-patterns has the
    # dump, the sliding run and the sweep read the same per-window patterns.
    root = Path(__file__).parents[1]
    argv = [sys.executable, "-W", "error", "-m", "vodprefetch.cli", "--dump-patterns",
            "--config", str(root / "configs" / "example.ini")]
    stderr = {}
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(root / "src"))
        out = ["--out", str(tmp_path / seed)]
        done = subprocess.run([*argv, *out], env=env, capture_output=True, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr.decode()
        stderr[seed] = done.stderr
    for name in (*OUTPUT_FILES, "patterns.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
    assert stderr["1"] == stderr["2"]


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


def test_vigilance_off_the_grid_is_trained_but_not_counted(tmp_path):
    out = tmp_path / "out"
    argv = ["--config", write_ini(tmp_path), "--out", str(out), "--vigilance", "0.33"]
    assert main([*argv, "--sweep", "0.3 0.5"]) == EXIT_OK
    lines = (out / "cluster_counts.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["vigilance", "0.3", "0.5"]
    header = (out / "network.snapshot").read_text().splitlines()[0].split()
    assert float(header[2]) == 0.33


def test_generated_run_ignores_csv_flag(tmp_path):
    ini = write_ini(tmp_path)
    plain, csv = tmp_path / "plain", tmp_path / "csv"
    assert main(["--config", ini, "--out", str(plain)]) == EXIT_OK
    assert main(["--config", ini, "--out", str(csv), "--csv"]) == EXIT_OK
    for name in ("metrics.csv", "cluster_counts.csv", "network.snapshot"):
        assert (plain / name).read_bytes() == (csv / name).read_bytes(), name


def test_dump_patterns_flag(tmp_path):
    out = tmp_path / "out"
    code = main(["--config", write_ini(tmp_path), "--out", str(out), "--dump-patterns"])
    assert code == EXIT_OK
    lines = (out / "patterns.csv").read_text().splitlines()
    assert lines[0].split(",")[0].startswith("v")
    assert set(lines[1].split(",")) <= {"0", "1"}


def test_run_without_dump_patterns_removes_stale_patterns(tmp_path):
    ini, out = write_ini(tmp_path), tmp_path / "out"
    assert main(["--config", ini, "--out", str(out), "--dump-patterns"]) == EXIT_OK
    assert (out / "patterns.csv").exists()
    assert main(["--config", ini, "--out", str(out)]) == EXIT_OK
    assert not (out / "patterns.csv").exists()


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


def _shifted(line: str) -> str:
    fields = line.split(" ")
    fields[2] = str(int(fields[2]) + 5_184_000_000)
    return " ".join(fields)


def _respelled(header: str, data: list[str]) -> tuple[list[str], list[str]]:
    # The header is line 1. Every 11th line gains a 404 copy before it, which
    # the status filter drops; every 3rd status reads 0200 and every 13th
    # gains a leading +; every 5th line has a seventh field and every 7th is
    # tab-separated, so real lines go through the reader's shared step.
    lines = [header]
    for number, line in enumerate(data, 2):
        fields = line.split(" ")
        if number % 11 == 0:
            lines.append(" ".join([*fields[:4], "404", fields[5]]))
        if number % 3 == 0:
            fields[4] = "0" + fields[4]
        if number % 13 == 0:
            fields[4] = "+" + fields[4]
        if number % 5 == 0:
            fields.append("extra")
        lines.append(("\t" if number % 7 == 0 else " ").join(fields))
    return lines, []


def _csv(header: str, data: list[str]) -> tuple[list[str], list[str]]:
    # Commas for spaces, after an indented comment; the "#,client_id,..."
    # header stays a comment. The header is line 1. Every 11th line gains a
    # 404 copy before it, every 3rd is separated by ", ", every 5th has a
    # seventh field and every 7th follows a blank line, so every branch of
    # the CSV step runs.
    lines = ["  # an indented comment", header.replace(" ", ",")]
    for number, line in enumerate(data, 2):
        fields = line.split(" ")
        if number % 11 == 0:
            lines.append(",".join([*fields[:4], "404", fields[5]]))
        if number % 5 == 0:
            fields.append("extra")
        if number % 7 == 0:
            lines.append("")
        lines.append((", " if number % 3 == 0 else ",").join(fields))
    return lines, ["--csv"]


# Rewrites of a generated trace that must replay to the same results: each
# maps its header and data lines to the lines to replay and the flags to read
# them with.
REPLAY_REWRITES = {
    "as-written": lambda header, data: ([header, *data], []),
    # Every client's events arrive out of time order, so segmentation sorts.
    "shuffled": lambda header, data: ([header, *random.Random(0).sample(data, len(data))], []),
    # 60,000 days: past 2**32 s, and a multiple of the window spacing, so the
    # windows split where they did.
    "shifted": lambda header, data: ([header, *map(_shifted, data)], []),
    "respelled": _respelled,
    "csv": _csv,
    # A byte-order mark right before the "#" header, which must still read
    # as a comment.
    "bom": lambda header, data: (["\ufeff" + header, *data], []),
    "bom-csv": lambda header, data: (
        [line.replace(" ", ",") for line in ("\ufeff" + header, *data)], ["--csv"]
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rewrite", REPLAY_REWRITES)
def test_replay_of_generated_trace_gives_same_outputs(tmp_path, rewrite):
    generated, replayed = tmp_path / "generated", tmp_path / "replayed"
    ini = write_ini(tmp_path)
    assert main(["--config", ini, "--out", str(generated), "--dump-patterns"]) == EXIT_OK
    header, *data = (generated / "trace.log").read_text(encoding="utf-8").splitlines()
    lines, flags = REPLAY_REWRITES[rewrite](header, data)
    trace = tmp_path / "trace.log"
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["--input", str(trace), *flags, "--out", str(replayed), "--dump-patterns"]
    assert main(argv) == EXIT_OK
    for name in ("metrics.csv", "cluster_counts.csv", "network.snapshot", "patterns.csv"):
        assert (generated / name).read_bytes() == (replayed / name).read_bytes(), name
    assert not (replayed / "trace.log").exists()
    assert not (replayed / "ground_truth.csv").exists()


def test_replay_streams_the_log_without_an_event_list(tmp_path, monkeypatch):
    # `run` feeds the reader's events straight into segment_sessions; a
    # list or tuple of them would hold every event of the log at once.
    handed = []
    segment_sessions = cli.segment_sessions

    def watched(events, *args):
        handed.append(events)
        return segment_sessions(events, *args)

    monkeypatch.setattr(cli, "segment_sessions", watched)
    generated, replayed = tmp_path / "generated", tmp_path / "replayed"
    assert main(["--config", write_ini(tmp_path), "--out", str(generated)]) == EXIT_OK
    assert main(["--input", str(generated / "trace.log"), "--out", str(replayed)]) == EXIT_OK
    assert len(handed) == 2
    for events in handed:
        assert isinstance(events, Iterator) and not isinstance(events, (list, tuple))
    for name in ("metrics.csv", "cluster_counts.csv", "network.snapshot"):
        assert (generated / name).read_bytes() == (replayed / name).read_bytes(), name


# --- cyclic GC ---


@pytest.fixture(params=[True, False], ids=["caller-gc-on", "caller-gc-off"])
def caller_gc(request):
    """Set the caller's GC state for one test; restore the original after."""
    original = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if original else gc.disable)()


@pytest.mark.parametrize(
    "argv, outcome",
    [
        (["--config", "{ini}", "--out", "{out}"], EXIT_OK),
        (["--nope"], EXIT_USAGE),
        (["--input", "{missing}", "--out", "{out}"], EXIT_DATA),
        ([], RuntimeError),
        (["--help"], SystemExit),
    ],
    ids=["ok", "usage", "data", "raises", "help"],
)
def test_main_restores_the_callers_gc_state(tmp_path, capsys, monkeypatch, caller_gc, argv, outcome):
    # `main` runs with the caller's GC state and leaves it so, however it
    # ends; in the "raises" case `run` raises an error `main` does not map.
    seen = []
    run = cli.run

    def watched(config):
        seen.append(gc.isenabled())
        if outcome is RuntimeError:
            raise RuntimeError("boom")
        return run(config)

    monkeypatch.setattr(cli, "run", watched)
    paths = {"ini": write_ini(tmp_path), "out": tmp_path / "out", "missing": tmp_path / "no.log"}
    argv = [arg.format(**paths) for arg in argv]
    if isinstance(outcome, int):
        assert main(argv) == outcome
    else:
        with pytest.raises(outcome) as raised:
            main(argv)
        if outcome is SystemExit:
            assert raised.value.code == 0
    assert gc.isenabled() is caller_gc
    assert seen in ([], [caller_gc])


def test_library_run_keeps_the_gc(tmp_path, monkeypatch):
    seen = []
    iter_events = cli.iter_events

    def watched(*args, **kwargs):
        seen.append(gc.isenabled())
        return iter_events(*args, **kwargs)

    monkeypatch.setattr(cli, "iter_events", watched)
    config = cli._assemble_config(["--config", write_ini(tmp_path), "--out", str(tmp_path)])
    assert gc.isenabled()
    assert cli.run(config) == EXIT_OK
    assert seen == [True]


# --- exit codes ---


@pytest.mark.parametrize(
    "ini, flags, code, message",
    [
        (None, ["--nope"], EXIT_USAGE, "unrecognized arguments: --nope"),
        (None, ["--vigilance", "1.5"], EXIT_USAGE, "vigilance must be in [0, 1], got 1.5"),
        (None, ["--config", "{missing}"], EXIT_USAGE,
         "cannot read config {missing}: [Errno 2] No such file or directory: '{missing}'"),
        (SMALL_INI, ["--window-spacing", "100"], EXIT_USAGE,
         "window_spacing 100 cannot hold a visit of up to 30 requests (needs > 900)"),
        # With config-overridden: a zero spacing from a config or a flag has one message.
        (None, ["--window-spacing", "0"], EXIT_USAGE, "window_spacing must be positive"),
        (None, ["--sweep", "0.3,1.5"], EXIT_USAGE, "sweep value 1.5 outside [0, 1]"),
        (None, ["--session-idle", "0"], EXIT_USAGE, "session idle bound must be positive"),
        (None, ["--freq-threshold", "0"], EXIT_USAGE, "freq_threshold must be >= 1"),
        (None, ["--history-windows", "-1"], EXIT_USAGE, "history_windows must be >= 0"),
        (None, ["--max-clusters", "-1"], EXIT_USAGE, "max_clusters must be >= 0"),
        (None, ["--max-epochs", "0"], EXIT_USAGE, "max_epochs must be >= 1"),
        ("[experiment]\nformat = tsv\n", [], EXIT_USAGE,
         "bad config {ini}: unknown log format 'tsv'"),
        ("seed = 3\n", [], EXIT_USAGE, "bad config {ini}: File contains no section headers."),
        ("[schedule]\n18 =\n", [], EXIT_USAGE,
         "bad config {ini}: [schedule] '18' needs a list of numbers, got ''"),
        ("[schedule]\n18 = 4 x 1 1 1\n", [], EXIT_USAGE,
         "bad config {ini}: [schedule] '18' needs a list of numbers, got '4 x 1 1 1'"),
        ("[schedule]\n24 = 1 1 1 1 1\n", [], EXIT_USAGE,
         "bad config {ini}: schedule hours '24' outside 0-23 or reversed"),
        ("[schedule]\nevening = 1 1 1 1 1\n", [], EXIT_USAGE,
         "bad config {ini}: bad schedule hour 'evening' (use H or H1-H2)"),
        ("[experiment]\nformat = ts%v\n", [], EXIT_USAGE,
         "bad config {ini}: unknown log format 'ts%v'"),
        ("[experiment]\nformat = %(here)s\n", [], EXIT_USAGE,
         "bad config {ini}: unknown log format '%(here)s'"),
        ("[clustering]\nsweep = a b\n", [], EXIT_USAGE,
         "bad config {ini}: [clustering] 'sweep' needs a list of numbers, got 'a b'"),
        ("[clustering]\nmax_epochs = many\n", [], EXIT_USAGE,
         "bad config {ini}: invalid literal for int() with base 10: 'many'"),
        ("[experiment]\ndump_patterns = maybe\n", [], EXIT_USAGE,
         "bad config {ini}: Not a boolean: maybe"),
        ("[clustering]\nvigilance = 1.5\n", [], EXIT_USAGE,
         "bad config {ini}: vigilance must be in [0, 1], got 1.5"),
        ("[experiment]\nwindow_spacing = 0\n", ["--window-spacing", "86400"], EXIT_USAGE,
         "bad config {ini}: window_spacing must be positive"),
        (None, ["--out", "{taken}"], EXIT_USAGE,
         "cannot create output directory {taken}: [Errno 17] File exists: '{taken}'"),
        (None, ["--out", "{taken}/sub"], EXIT_USAGE,
         "cannot create output directory {taken}/sub: [Errno 20] Not a directory: '{taken}/sub'"),
        ("[workload]\nzipf_exponent = nan\n", [], EXIT_USAGE,
         "bad config {ini}: zipf_exponent must be positive and finite, got nan"),
        ("[schedule]\n18 = 4 inf 1 1 1\n", [], EXIT_USAGE,
         "bad config {ini}: schedule hour 18 has a negative or non-finite multiplier"),
        (None, ["--input", "{huge}"], EXIT_DATA,
         "line 2: timestamp 9223372036854775808 above 2**63 - 1"),
    ],
    ids=["unknown-flag", "flag-vigilance", "missing-config", "infeasible-spacing",
         "flag-zero-spacing", "sweep-value", "session-idle", "freq-threshold", "history-windows",
         "max-clusters", "max-epochs", "log-format", "no-section-header", "schedule-empty",
         "schedule-garbage", "schedule-hour-24", "schedule-hour-word", "percent",
         "percent-reference", "config-sweep", "config-int", "config-bool", "config-vigilance",
         "config-overridden", "out-is-a-file", "out-under-a-file", "config-zipf-nan",
         "schedule-inf", "timestamp-above-int64"],
)
def test_rejected_settings_exit_with_their_message(tmp_path, capsys, ini, flags, code, message):
    paths = {"ini": str(tmp_path / "exp.ini"), "taken": str(tmp_path / "taken"),
             "huge": str(tmp_path / "huge.log"), "missing": str(tmp_path / "missing.ini")}
    (tmp_path / "taken").write_text("", encoding="utf-8")
    (tmp_path / "huge.log").write_text(
        "c1 u1 9223372036854775807 v1 200 5\nc1 u1 9223372036854775808 v1 200 5\n",
        encoding="utf-8",
    )
    argv = ["--out", str(tmp_path / "out")]
    if ini is not None:
        argv += ["--config", write_ini(tmp_path, ini)]
    argv += [flag.format(**paths) for flag in flags]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(f"error: {message.format(**paths)}\n")
    # A bad setting stops the run before it makes the output directory; a
    # bad log line is only found by the read, after it.
    assert (tmp_path / "out").exists() == (code == EXIT_DATA)


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


def test_failed_final_training_leaves_no_snapshot(tmp_path):
    # A snapshot from an earlier run into the same directory must not
    # outlive a run whose training at --vigilance ran out of clusters.
    ini, out = write_ini(tmp_path), tmp_path / "out"
    assert main(["--config", ini, "--out", str(out)]) == EXIT_OK
    assert (out / "network.snapshot").exists()
    code = main(
        ["--config", ini, "--out", str(out),
         "--max-clusters", "1", "--vigilance", "0.5", "--sweep", "0.5"]
    )
    assert code == EXIT_CAPACITY
    assert not (out / "network.snapshot").exists()


def write_one_cluster_trace(tmp_path):
    """Four daily windows; under a one-window history and one cluster, window
    1 has two disjoint patterns and runs out of clusters, windows 0 and 2 do not."""
    days = [[("a", "v1")], [("a", "v1"), ("b", "v2")], [("a", "v1")], [("a", "v1")]]
    lines = [
        f"{client} u1 {d * 86400 + offset} {video} 200 100"
        for d, requests in enumerate(days)
        for client, video in requests
        for offset in (10, 20)
    ]
    trace = tmp_path / "trace.log"
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(trace)


def test_window_capacity_error_keeps_other_windows(tmp_path, caplog):
    out = tmp_path / "out"
    code = main(
        ["--input", write_one_cluster_trace(tmp_path), "--out", str(out), "--history-windows", "1",
         "--max-clusters", "1", "--vigilance", "0.9", "--sweep", "0"]
    )
    assert code == EXIT_CAPACITY
    rows = (out / "metrics.csv").read_text().splitlines()
    assert rows[0] == "window,cluster,members,prefetched,hits,accuracy"
    assert [row.split(",")[0] for row in rows[1:]] == ["0", "2"]
    assert "window 1: no free cluster and none passed vigilance" in caplog.text


def test_failing_run_logs_windows_then_sweep_in_order(tmp_path, caplog):
    # Both training loops warn and fail through one helper, which logs each
    # training's outcome as it ends: the windows in order, then the sweep.
    out = tmp_path / "out"
    caplog.set_level(logging.INFO)
    code = main(
        ["--input", write_one_cluster_trace(tmp_path), "--out", str(out), "--history-windows", "1",
         "--max-clusters", "1", "--vigilance", "0.9", "--sweep", "0 0.9", "--max-epochs", "1"]
    )
    assert code == EXIT_CAPACITY
    assert (out / "cluster_counts.csv").read_text() == "vigilance,clusters\n0,1\n"
    rows = (out / "metrics.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["0", "2"]
    assert not (out / "network.snapshot").exists()
    exhausted = "no free cluster and none passed vigilance (best: cluster 0, similarity 0.000000)"
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "window 0: training did not converge in 1 epochs"),
        ("ERROR", f"window 1: {exhausted}"),
        ("WARNING", "window 2: training did not converge in 1 epochs"),
        ("INFO", "member-weighted prefetch accuracy 1.0000 over 4 windows"),
        ("WARNING", "vigilance 0: training did not converge in 1 epochs"),
        ("ERROR", f"vigilance 0.9: {exhausted}"),
    ]


def test_failed_window_alone_is_exit_three(tmp_path, monkeypatch):
    # A window trains on a subset of the sweep's patterns, and no small trace
    # was found where it runs out of clusters and the sweep does not, so the
    # failure is put on one window's result.
    real_sliding_run = cli.sliding_run

    def first_window_fails(*args, **kwargs):
        (window, result), *rest = real_sliding_run(*args, **kwargs)
        return [(window, result._replace(metrics=(), error="out of clusters")), *rest]

    monkeypatch.setattr(cli, "sliding_run", first_window_fails)
    argv = ["--input", write_one_cluster_trace(tmp_path), "--out", str(tmp_path / "out"),
            "--vigilance", "0", "--sweep", "0"]
    assert main(argv) == EXIT_CAPACITY


def test_failed_sweep_alone_is_exit_three(tmp_path, caplog):
    # One window, so no sliding evaluation runs; two disjoint patterns need
    # two clusters at vigilance 0.9.
    trace = tmp_path / "one-day.log"
    lines = [f"{c} u1 {t} {v} 200 100\n" for c, v in (("a", "v1"), ("b", "v2")) for t in (10, 20)]
    trace.write_text("".join(lines), encoding="utf-8")
    argv = ["--input", str(trace), "--out", str(tmp_path / "out"), "--max-clusters", "1",
            "--vigilance", "0.9", "--sweep", "0.9"]
    assert main(argv) == EXIT_CAPACITY
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith("vigilance 0.9: no free cluster")


def test_each_session_is_extracted_once(tmp_path, monkeypatch):
    # The sliding run trains on the per-window patterns `run` extracted, so
    # a trace of several windows still extracts each session's pattern once.
    found = {}

    def recording(module, name, record):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            record(args, result)
            return result

        monkeypatch.setattr(module, name, wrapper)

    extracted = []
    for module in (cli, prefetch):
        recording(module, "patterns_for_sessions", lambda args, _: extracted.extend(args[0]))
    recording(cli, "segment_sessions", lambda _, sessions: found.update(sessions=sessions))
    recording(cli, "group_sessions_by_window", lambda _, windows: found.update(windows=windows))
    text = SMALL_INI.replace("num_session_windows = 2", "num_session_windows = 4")
    assert main(["--config", write_ini(tmp_path, text), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(found["windows"]) >= 3
    assert len(extracted) == len(found["sessions"])
    assert sorted(map(id, extracted)) == sorted(map(id, found["sessions"]))


def test_dropped_patterns_are_reported_once_with_the_total(tmp_path, caplog):
    # Two daily windows; in each, one client requests its video twice and
    # another requests a video only once, which gives an all-zero pattern.
    days = [[("a", "v1", 2), ("b", "v2", 1)], [("a", "v1", 2), ("c", "v3", 1)]]
    lines = [
        f"{client} u1 {d * 86400 + 10 * (k + 1)} {video} 200 100"
        for d, requests in enumerate(days)
        for client, video, count in requests
        for k in range(count)
    ]
    trace = tmp_path / "trace.log"
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    caplog.set_level(logging.INFO)
    assert main(["--input", str(trace), "--out", str(tmp_path / "out")]) == EXIT_OK
    dropped = [r.getMessage() for r in caplog.records if "dropped" in r.getMessage()]
    assert dropped == ["dropped 2 all-zero patterns"]


def test_force_assign_recovers_capacity(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["--config", write_ini(tmp_path), "--out", str(out),
         "--max-clusters", "1", "--sweep", "0 0.5", "--force-assign"]
    )
    assert code == EXIT_OK
    lines = (out / "cluster_counts.csv").read_text().splitlines()
    assert lines == ["vigilance,clusters", "0,1", "0.5,1"]


def test_force_assign_fallbacks_are_logged_per_training(tmp_path, caplog):
    out = tmp_path / "out"
    argv = ["--config", write_ini(tmp_path), "--out", str(out),
            "--max-clusters", "1", "--sweep", "0 0.5", "--force-assign"]
    assert main(argv) == EXIT_OK
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    # Vigilance 0 passes every pattern; the final training repeats 0.4.
    assert warnings == [
        f"{label}: {n} of {n} presentations in the last epoch fell back to the closest"
        " cluster (--force-assign)"
        for label, n in (("window 0", 10), ("vigilance 0.5", 20), ("vigilance 0.4", 20))
    ]


def test_force_assign_without_fallbacks_logs_no_warning(tmp_path, caplog):
    out = tmp_path / "out"
    assert main(["--config", write_ini(tmp_path), "--out", str(out), "--force-assign"]) == EXIT_OK
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


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


# --- cold start ---

# Modules a replay run has no use for; each costs start-up time.
REPLAY_NEVER_LOADS = (
    "dataclasses",
    "inspect",
    "pathlib",
    "configparser",
    "random",
    "typing",
    "_typing",
    "vodprefetch.workload",
)


def loaded_at_start(argv):
    """Which REPLAY_NEVER_LOADS modules a fresh `python3 -S` has loaded once
    `main(argv)` has parsed the flags and assembled the config."""
    probe = (
        "import sys\n"
        "import vodprefetch.cli as cli\n"
        "cli.run = lambda config: 0\n"
        "code = cli.main(sys.argv[1:])\n"
        f"print(code, *[m for m in {REPLAY_NEVER_LOADS!r} if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    code, *loaded = done.stdout.split()
    assert code == str(EXIT_OK), done.stderr
    return loaded


def test_replay_start_loads_no_generator_or_dataclasses(tmp_path):
    argv = ["--input", str(tmp_path / "trace.log"), "--out", str(tmp_path / "out")]
    assert loaded_at_start(argv) == []


def test_generated_start_loads_the_generator(tmp_path):
    assert "vodprefetch.workload" in loaded_at_start(["--out", str(tmp_path / "out")])
