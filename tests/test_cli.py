import csv
import errno
import io
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from dualthresh import cli
from dualthresh.cli import main
from dualthresh.datagen import GeneratorConfig, derive_seed, generate_dataset, signal_strength
from dualthresh.io import write_samples_csv

from .test_io import fail_second_write

WORKED_CAL_CSV = (
    "sample_id,label,prob_0,prob_1\n"
    f"c1,0,{math.exp(-0.1):.9g},{1 - math.exp(-0.1):.9g}\n"
    f"c2,0,{math.exp(-0.2):.9g},{1 - math.exp(-0.2):.9g}\n"
    f"m1,0,{math.exp(-0.8):.9g},{1 - math.exp(-0.8):.9g}\n"
    f"m2,0,{math.exp(-0.9):.9g},{1 - math.exp(-0.9):.9g}\n"
)


def small_config(**overrides):
    cfg = {
        "alpha": 0.1,
        "conditions": ["rain"],
        "severities": [0, 3],
        "seed": 7,
        "n_calibration": 150,
        "generator": {"k_classes": 6, "n_samples": 200, "base_accuracy": 0.85},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="cfg.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(small_config(**overrides)), encoding="utf-8")
    return path


# The rules of the config's two lists, as an error message spells them.
CONDITIONS_RULE = (
    "a non-empty list of distinct values, each a string without a carriage return"
)
SEVERITIES_RULE = "a non-empty list of distinct values, each an integer in [0, 5]"

# Three conditions whose file names would all be a_b.
COLLIDING = ["a_b", "a,b", "a b"]
COLLISION_ERROR = "error: conditions 'a b' and 'a,b' share the file name 'a_b'\n"


class ClosedAfterFirstLine(io.StringIO):
    """An unbuffered standard output whose reader goes away after the
    first line, so the next write fails."""

    def write(self, text):
        if "\n" in self.getvalue():
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return super().write(text)


def child_env():
    """The environment for a child Python that imports this checkout's
    package, with standard output block-buffered as Python buffers a pipe."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    return env


def run_with_closed_stdout(argv):
    """Run the CLI in a child process whose standard output is a pipe
    with no reader."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "dualthresh.cli", *argv], env=child_env(), stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)


# A child that runs the CLI on sys.argv[2:] and kills itself with SIGKILL
# as soon as it writes a line starting with sys.argv[1], so no cleanup of
# any kind runs.
KILLED_AFTER_LINE = """
import os, signal, sys
from dualthresh.cli import main

class KilledAfterLine:
    def __init__(self, stream, prefix):
        self.stream, self.prefix = stream, prefix

    def write(self, text):
        self.stream.write(text)
        if text.startswith(self.prefix):
            self.stream.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        return len(text)

    def flush(self):
        self.stream.flush()

sys.stdout = KilledAfterLine(sys.stdout, sys.argv[1])
sys.exit(main(sys.argv[2:]))
"""


# A child that runs the CLI on sys.argv[2:] and kills itself with SIGKILL
# while it fills the temporary of the output named sys.argv[1], so that
# temporary stays behind.
KILLED_MID_WRITE = """
import os, signal, sys
from contextlib import contextmanager
from dualthresh import io
from dualthresh.cli import main

open_write = io._open_write

@contextmanager
def killed_mid_write(path):
    with open_write(path) as fh:
        if os.path.basename(path) == sys.argv[1]:
            fh.write("sample_id\\n")
            fh.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        yield fh

io._open_write = killed_mid_write
sys.exit(main(sys.argv[2:]))
"""

# A name of the temporary io._open_write fills for the file NAME.
STALE = ".{}.0123456789ab.tmp"


def tree_bytes(root):
    return {
        p.relative_to(root): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_cli_import_leaves_scipy_stats_unloaded():
    # Neither the package nor its command line loads any scipy module.
    for module in ("dualthresh", "dualthresh.cli"):
        probe = (
            f"import sys, {module}; print('scipy.stats' in sys.modules, "
            "[m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "False []", module


def test_cli_import_leaves_fractions_and_decimal_unloaded():
    # The conformal rank is exact integer arithmetic, not Fraction's.
    probe = (
        "import sys, dualthresh.cli; "
        "print([m for m in ('fractions', 'decimal') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


class TestVersionAndUsage:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "dualthresh" in out and "thresholds format 2," in out

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestGen:
    def test_writes_files_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["gen", str(cfg), "--out", str(tmp_path / "data")]) == 0
        out = capsys.readouterr().out
        assert "(150 samples)" in out and "(200 samples)" in out
        assert (tmp_path / "data" / "rain_cal.csv").exists()
        assert (tmp_path / "data" / "rain_s0.csv").exists()
        assert (tmp_path / "data" / "rain_s3.csv").exists()
        assert (tmp_path / "data" / "manifest.json").exists()

    def test_same_seed_gives_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen", str(cfg), "--out", str(tmp_path / "a")])
        main(["gen", str(cfg), "--out", str(tmp_path / "b")])
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_removes_stale_temporaries_of_its_tree_only(self, tmp_path):
        cfg, data = write_config(tmp_path), tmp_path / "data"
        data.mkdir()
        for name in ["rain_cal.csv", "rain_s3.csv", "manifest.json", "rain_s1.csv"]:
            (data / STALE.format(name)).write_text("stale\n", encoding="utf-8")
        assert main(["gen", str(cfg), "--out", str(data)]) == 0
        assert [p.name for p in data.glob(".*")] == [STALE.format("rain_s1.csv")]

    def test_each_file_is_drawn_by_the_per_file_rule(self, tmp_path):
        # A condition's calibration file holds n_calibration rows at
        # severity 0, seeded by (seed, condition, "cal"); its test file of
        # severity s holds n_samples rows, seeded by (seed, condition,
        # "test", s). Every other generator setting is the config's.
        cfg = write_config(tmp_path, conditions=["rain", "fog"], severities=[3, 0])
        assert main(["gen", str(cfg), "--out", str(tmp_path / "d")]) == 0
        expected = {}
        for cond in ("rain", "fog"):
            expected[f"{cond}_cal.csv"] = (cond, 150, 0, derive_seed(7, cond, "cal"))
            for sev in (3, 0):
                seed = derive_seed(7, cond, "test", sev)
                expected[f"{cond}_s{sev}.csv"] = (cond, 200, sev, seed)
        assert sorted(p.name for p in (tmp_path / "d").iterdir()) == sorted(
            [*expected, "manifest.json"]
        )
        generator = small_config()["generator"]
        for name, (cond, n, sev, seed) in expected.items():
            gen = GeneratorConfig(
                **{**generator, "n_samples": n}, severity=sev, seed=seed, condition=cond
            )
            write_samples_csv(generate_dataset(gen), tmp_path / "expected.csv")
            assert (tmp_path / "d" / name).read_bytes() == (
                tmp_path / "expected.csv"
            ).read_bytes(), name

    @pytest.mark.parametrize("name", ["manifest.json", "rain_cal.csv", "rain_s3.csv"])
    def test_config_under_a_data_file_name_exits_2(self, tmp_path, capsys, name):
        # The config sits in the output directory under a name gen writes:
        # nothing is written, and the config is left as it was.
        out = tmp_path / "out"
        out.mkdir()
        cfg = write_config(out, name=name)
        before = tree_bytes(out)
        assert main(["gen", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: the config and --out name the same file {str(cfg)!r}; "
            "the generated data would overwrite the config\n"
        ))
        assert tree_bytes(out) == before

    def test_invalid_generator_size_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, generator={"n_samples": 0})
        assert main(["gen", str(cfg), "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alhpa": 0.1}), encoding="utf-8")
        assert main(["gen", str(path), "--out", str(tmp_path / "d")]) == 2
        assert "alhpa" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"conditions": "rain"}, "conditions"),
            ({"conditions": [["a"]]}, "conditions"),
            ({"conditions": [1]}, "conditions"),
            ({"severities": 3}, "severities"),
            ({"severities": [0, 1.5]}, "severities"),
            ({"severities": [True]}, "severities"),
            ({"seed": 1.5}, "seed"),
            ({"seed": "7"}, "seed"),
            ({"seed": True}, "seed"),
            ({"n_calibration": 150.0}, "n_calibration"),
            ({"alpha": True}, "alpha"),
            ({"alpha": "0.1"}, "alpha"),
            ({"manifest": 3}, "manifest"),
            ({"generator": {"n_samples": False}}, "n_samples"),
            ({"generator": {"k_classes": 6.5}}, "k_classes"),
            ({"generator": {"base_accuracy": True}}, "base_accuracy"),
            ({"generator": {"temperature_per_level": [1]}}, "temperature_per_level"),
        ],
    )
    def test_mistyped_config_value_exits_2(self, tmp_path, capsys, overrides, key):
        cfg = write_config(tmp_path, **overrides)
        assert main(["gen", str(cfg), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "d").exists()


    def test_generator_fault_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, generator={"n_samples": 0})
        assert main(["gen", str(cfg), "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: config generator: n_samples must be >= 1, got 0\n"
        )
        assert not (tmp_path / "d").exists()

    def test_conditions_sharing_a_file_name_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, conditions=COLLIDING)
        assert main(["gen", str(cfg), "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == COLLISION_ERROR
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("command", ["gen", "sweep"])
    @pytest.mark.parametrize(
        "key, value, got",
        [
            ("temperature_per_level", math.nan, "nan"),
            ("temperature_per_level", math.inf, "inf"),
            ("temperature_per_level", 1e70, "1e+70"),  # 1e350 at severity 5
            ("noise_sigma_per_level", math.nan, "nan"),
            ("noise_sigma_per_level", math.inf, "inf"),
            ("noise_sigma_per_level", 1e308, "1e+308"),  # 5e308 at severity 5
        ],
    )
    def test_non_finite_generator_setting_exits_2(
        self, tmp_path, capsys, command, key, value, got
    ):
        # json reads the NaN and Infinity literals that json.dumps writes
        cfg = write_config(tmp_path, generator={key: value})
        out_flag = "--out" if command == "gen" else "--out-dir"
        assert main([command, str(cfg), out_flag, str(tmp_path / "d")]) == 2
        rule = (
            "positive, and finite raised to"
            if key == "temperature_per_level"
            else "nonnegative, and finite times"
        )
        assert capsys.readouterr().err == (
            f"error: {cfg}: config generator: {key} must be {rule} the top severity 5, got {got}\n"
        )
        assert not (tmp_path / "d").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_logits_exit_2_without_a_warning(self, tmp_path, capsys):
        # 3.9e61**5 is about 9e307: finite, but the scaled logits are not
        generator = {**small_config()["generator"], "temperature_per_level": 3.9e61}
        cfg = write_config(tmp_path, severities=[0, 5], generator=generator)
        assert main(["gen", str(cfg), "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == (
            "error: temperature_per_level 3.9e+61 and noise_sigma_per_level 0.4 "
            "give non-finite logits at severity 5\n"
        )
        assert not (tmp_path / "d" / "manifest.json").exists()

    def test_condition_holding_a_carriage_return_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, conditions=["rain", "a\rb"])
        assert main(["gen", str(cfg), "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: config key 'conditions' must be {CONDITIONS_RULE}, "
            "got ['rain', 'a\\rb']\n"
        )
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("command", ["gen", "sweep"])
    @pytest.mark.parametrize(
        "key, value, rule",
        [
            ("alpha", 0, "a number in (0, 1)"),
            ("alpha", 1.0, "a number in (0, 1)"),
            ("conditions", [], CONDITIONS_RULE),
            ("conditions", ["rain", "fog", "rain"], CONDITIONS_RULE),
            ("severities", [], SEVERITIES_RULE),
            ("severities", [0, 6], SEVERITIES_RULE),
            ("severities", [3, 0, 3], SEVERITIES_RULE),
            ("n_calibration", 0, "an integer >= 1"),
        ],
    )
    def test_config_rule_violation_exits_2(self, tmp_path, capsys, command, key, value, rule):
        cfg = write_config(tmp_path, **{key: value})
        out_flag = "--out" if command == "gen" else "--out-dir"
        assert main([command, str(cfg), out_flag, str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: config key {key!r} must be {rule}, got {value!r}\n"
        )
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("command", ["gen", "sweep"])
    @pytest.mark.parametrize(
        "overrides", [{"generator": {"n_samples": 10**18}}, {"n_calibration": 10**18}]
    )
    def test_oversized_generator_setting_exits_2(self, tmp_path, capsys, command, overrides):
        # 8 EB is beyond any address space, so nothing is allocated.
        cfg = write_config(tmp_path, **overrides)
        out_flag = "--out" if command == "gen" else "--out-dir"
        assert main([command, str(cfg), out_flag, str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "overrides", [{"manifest": "data/manifest.json"}, {}], ids=["manifest", "generator"]
    )
    def test_reading_a_config_solves_no_accuracy_integral(self, tmp_path, overrides):
        # GeneratorConfig refuses chance accuracy itself, so parsing needs
        # no solve; a generated sweep solves on its first generate_dataset.
        cfg = write_config(tmp_path, **overrides)
        signal_strength.cache_clear()
        cli.SweepConfig.from_file(cfg)
        assert signal_strength.cache_info().misses == 0
        assert not hasattr(cli, "signal_strength")

    @pytest.mark.parametrize("accuracy", [0.05, 0.1])
    def test_accuracy_at_or_below_chance_exits_2(self, tmp_path, capsys, accuracy):
        generator = {**small_config()["generator"], "k_classes": 10, "base_accuracy": accuracy}
        cfg = write_config(tmp_path, generator=generator)
        for command, out_flag in (("gen", "--out"), ("sweep", "--out-dir")):
            assert main([command, str(cfg), out_flag, str(tmp_path / "d")]) == 2
            assert capsys.readouterr().err == (
                f"error: {cfg}: config generator: base_accuracy must exceed chance, "
                f"1/k_classes = 0.1 for k_classes 10, got {accuracy}\n"
            )
            assert not (tmp_path / "d").exists()


class TestCalibrate:
    def test_worked_four_sample_file(self, tmp_path, capsys):
        cal = tmp_path / "cal.csv"
        cal.write_text(WORKED_CAL_CSV, encoding="utf-8")
        out = tmp_path / "thr.json"
        assert main(
            ["calibrate", "--cal", str(cal), "--alpha", "0.5", "--out", str(out)]
        ) == 0
        stdout = capsys.readouterr().out
        assert "q_abs=0.200000" in stdout
        assert "youden_j=1.000000" in stdout
        assert "n=4" in stdout
        assert out.exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cal = tmp_path / "cal.csv"
        cal.write_text(WORKED_CAL_CSV, encoding="utf-8")
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for out in (first, second):
            assert main(
                ["calibrate", "--cal", str(cal), "--alpha", "0.5", "--out", str(out)]
            ) == 0
        assert first.read_bytes() == second.read_bytes()
        assert list(json.loads(first.read_text(encoding="utf-8"))) == [
            "q_conf", "q_abs", "alpha", "n_calibration", "youden_j", "k_classes",
            "format_version",
        ]

    @pytest.mark.parametrize("stdout", ["pipe", "file"])
    def test_out_to_standard_output_prints_the_thresholds(self, tmp_path, capsys, stdout):
        # /dev/stdout is written through the process's own standard
        # output, so a regular file there keeps its inode and holds the
        # JSON, then the report lines printed after it.
        cal = tmp_path / "cal.csv"
        cal.write_text(WORKED_CAL_CSV, encoding="utf-8")
        out = tmp_path / "thr.json"
        assert main(["calibrate", "--cal", str(cal), "--alpha", "0.5", "--out", str(out)]) == 0
        report = capsys.readouterr().out.replace(str(out), "/dev/stdout")
        log = tmp_path / "log"
        with open(log, "wb") as fh:
            proc = subprocess.run(
                [sys.executable, "-m", "dualthresh.cli", "calibrate", "--cal", str(cal),
                 "--alpha", "0.5", "--out", "/dev/stdout"],
                env=child_env(), stdout=subprocess.PIPE if stdout == "pipe" else fh,
                stderr=subprocess.PIPE, timeout=120,
            )
            inode = os.fstat(fh.fileno()).st_ino
        assert (proc.returncode, proc.stderr) == (0, b"")
        printed = proc.stdout if stdout == "pipe" else log.read_bytes()
        assert printed == out.read_bytes() + report.encode()
        assert os.stat(log).st_ino == inode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cal.csv", "log", "thr.json"]

    @pytest.mark.parametrize("stdin", ["file", "pipe"])
    def test_calibration_read_from_stdin(self, tmp_path, stdin, capsys):
        # The reader takes its input in one pass, so a pipe, which cannot
        # be read twice, gives the bytes the file gives, and a bad byte
        # the line the file names.
        cal = tmp_path / "cal.csv"
        from_file, from_stdin = tmp_path / "file.json", tmp_path / "stdin.json"

        def run(data):
            cal.write_bytes(data)
            code = main(
                ["calibrate", "--cal", str(cal), "--alpha", "0.5", "--out", str(from_file)]
            )
            argv = ["calibrate", "--cal", "/dev/stdin", "--alpha", "0.5",
                    "--out", str(from_stdin)]
            with open(cal, "rb") as fh:
                feed = {"stdin": fh} if stdin == "file" else {"input": fh.read()}
                done = subprocess.run(
                    [sys.executable, "-m", "dualthresh.cli", *argv],
                    env=child_env(), capture_output=True, **feed,
                )
            assert done.returncode == code
            return done.stderr.decode(), capsys.readouterr().err.replace(str(cal), "/dev/stdin")

        assert run(WORKED_CAL_CSV.encode("utf-8")) == ("", "")
        assert from_stdin.read_bytes() == from_file.read_bytes()
        from_stdin.unlink()
        assert run(WORKED_CAL_CSV.encode("utf-8").replace(b"c2,", b"c\xe92,")) == 2 * (
            "error: /dev/stdin:3: byte 0xe9 is not valid UTF-8 (invalid continuation byte)\n",
        )
        assert not from_stdin.exists()

    @pytest.mark.parametrize("alpha", ["0", "1", "1.5", "nan", "-inf"])
    def test_alpha_is_checked_before_the_input_is_read(self, tmp_path, capsys, alpha):
        out = tmp_path / "t.json"
        code = main(
            ["calibrate", "--cal", str(tmp_path / "missing.csv"), f"--alpha={alpha}",
             "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --alpha must be in (0, 1), got {float(alpha)}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("out", ["cal.csv", "./cal.csv", "sub/../cal.csv"])
    def test_output_naming_the_input_exits_2(self, tmp_path, capsys, out):
        (tmp_path / "sub").mkdir()
        cal = tmp_path / "cal.csv"
        cal.write_text(WORKED_CAL_CSV, encoding="utf-8")
        code = main(
            ["calibrate", "--cal", str(cal), "--alpha", "0.5", "--out", str(tmp_path / out)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --cal and --out name the same file {str(cal)!r}; "
            "the thresholds would overwrite the calibration data\n"
        )
        assert cal.read_text(encoding="utf-8") == WORKED_CAL_CSV

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["calibrate", "--cal", str(tmp_path / "nope.csv"), "--out",
             str(tmp_path / "t.json")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_duplicate_sample_id_exits_2(self, tmp_path, capsys):
        cal = tmp_path / "cal.csv"
        cal.write_text(WORKED_CAL_CSV + WORKED_CAL_CSV.splitlines()[1] + "\n",
                       encoding="utf-8")
        code = main(
            ["calibrate", "--cal", str(cal), "--out", str(tmp_path / "t.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'c1'" in err and "line 2" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("cell, message", [
        # int() reads each of the first four as 1
        (" 1 ", "label ' 1 ' is not an integer"),
        ("+1", "label '+1' is not an integer"),
        ("0_1", "label '0_1' is not an integer"),
        ("\u0661", "label '\u0661' is not an integer"),
        ("-1", "label -1 out of range for 2 classes"),
    ])
    def test_label_cell_must_be_ascii_digits(self, tmp_path, capsys, cell, message):
        rows = WORKED_CAL_CSV.splitlines()
        rows[3] = rows[3].replace("m1,0,", f"m1,{cell},")
        cal = tmp_path / "cal.csv"
        cal.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(["calibrate", "--cal", str(cal), "--out", str(tmp_path / "t.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {cal}:4: {message}\n"
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("columns, got", [
        ([f"p{j}" for j in range(1000)],
         "1000 prefixes, the first 5 ['p0', 'p1', 'p10', 'p100', 'p101']"),
        (["e_0", "d_1", "c_2", "b_3", "a_4"], "['a', 'b', 'c', 'd', 'e']"),
    ])
    def test_mixed_header_error_is_one_short_line(self, tmp_path, capsys, columns, got):
        cal = tmp_path / "cal.csv"
        cal.write_text("sample_id,label," + ",".join(columns) + "\n", encoding="utf-8")
        code = main(["calibrate", "--cal", str(cal), "--out", str(tmp_path / "t.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {cal}:1: value columns must be all logit_* or all prob_*, got {got}\n"
        )

    def test_all_correct_calibration_exits_3(self, tmp_path, capsys):
        cal = tmp_path / "cal.csv"
        cal.write_text(
            "sample_id,label,prob_0,prob_1\n"
            + "".join(f"s{i},0,0.95,0.05\n" for i in range(5)),
            encoding="utf-8",
        )
        code = main(
            ["calibrate", "--cal", str(cal), "--alpha", "0.1", "--out",
             str(tmp_path / "t.json")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "correct and incorrect" in err

    def test_unreachable_alpha_warns_but_succeeds(self, tmp_path, capsys):
        cal = tmp_path / "cal.csv"
        cal.write_text(WORKED_CAL_CSV, encoding="utf-8")
        out = tmp_path / "thr.json"
        code = main(
            ["calibrate", "--cal", str(cal), "--alpha", "0.01", "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "q_conf=inf" in captured.err or "q_conf=inf" in captured.out
        assert "warning" in captured.err
        assert json.loads(out.read_text(encoding="utf-8"))["q_conf"] == "inf"

# WORKED_CAL_CSV calibrated at alpha 0.5, as thresholds format 1 wrote it.
FORMAT_1_THRESHOLDS = """{
  "q_conf": 0.8000000002608815,
  "q_abs": 0.2000000000952473,
  "alpha": 0.5,
  "n_calibration": 4,
  "youden_j": 1.0,
  "k_classes": 2,
  "created_utc": "",
  "format_version": 1
}
"""


class TestEvaluate:
    def _calibrated(self, tmp_path, alpha="0.5"):
        cal = tmp_path / "cal.csv"
        cal.write_text(WORKED_CAL_CSV, encoding="utf-8")
        thr = tmp_path / "thr.json"
        main(["calibrate", "--cal", str(cal), "--alpha", alpha, "--out", str(thr)])
        return cal, thr

    def test_sentinel_threshold_gives_full_coverage(self, tmp_path):
        cal, thr = self._calibrated(tmp_path, alpha="0.01")
        rec, summ = tmp_path / "rec.csv", tmp_path / "sum.csv"
        assert main(
            ["evaluate", "--test", str(cal), "--thresholds", str(thr),
             "--records-out", str(rec), "--summary-out", str(summ)]
        ) == 0
        row = summ.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert float(row[3]) == 1.0  # coverage column

    def test_in_sample_coverage_sanity(self, tmp_path):
        cal, thr = self._calibrated(tmp_path, alpha="0.5")
        rec, summ = tmp_path / "rec.csv", tmp_path / "sum.csv"
        main(
            ["evaluate", "--test", str(cal), "--thresholds", str(thr),
             "--records-out", str(rec), "--summary-out", str(summ)]
        )
        row = summ.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert float(row[3]) >= 1 - 0.5 - 0.02

    def test_record_count_matches_input(self, tmp_path):
        cal, thr = self._calibrated(tmp_path)
        rec, summ = tmp_path / "rec.csv", tmp_path / "sum.json"
        main(
            ["evaluate", "--test", str(cal), "--thresholds", str(thr),
             "--records-out", str(rec), "--summary-out", str(summ)]
        )
        assert len(rec.read_text(encoding="utf-8").splitlines()) == 4 + 1
        assert json.loads(summ.read_text(encoding="utf-8"))[0]["n"] == 4

    @pytest.mark.parametrize("name", ["sum.JSON", "sum.Json"])
    def test_summary_suffix_picks_json_in_any_case(self, tmp_path, name):
        cal, thr = self._calibrated(tmp_path)
        rec, summ = tmp_path / "rec.csv", tmp_path / name
        assert main(
            ["evaluate", "--test", str(cal), "--thresholds", str(thr),
             "--records-out", str(rec), "--summary-out", str(summ)]
        ) == 0
        assert json.loads(summ.read_text(encoding="utf-8"))[0]["n"] == 4

    def test_class_count_mismatch_exits_2(self, tmp_path, capsys):
        _, thr = self._calibrated(tmp_path)
        test = tmp_path / "test3.csv"
        test.write_text(
            "sample_id,label,prob_0,prob_1,prob_2\na,0,0.5,0.3,0.2\n",
            encoding="utf-8",
        )
        code = main(
            ["evaluate", "--test", str(test), "--thresholds", str(thr),
             "--records-out", str(tmp_path / "r.csv"),
             "--summary-out", str(tmp_path / "s.csv")]
        )
        assert code == 2
        assert "classes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_calibration", 3.7),
            ("n_calibration", True),
            ("k_classes", "3"),
            ("alpha", "0.1"),
            ("created_utc", 5),
            ("q_conf", "1.5"),
            ("colour", "blue"),
        ],
    )
    def test_mistyped_thresholds_value_exits_2(self, tmp_path, capsys, key, value):
        cal, thr = self._calibrated(tmp_path)
        doc = json.loads(thr.read_text(encoding="utf-8"))
        doc[key] = value
        thr.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = main(
            ["evaluate", "--test", str(cal), "--thresholds", str(thr),
             "--records-out", str(tmp_path / "r.csv"),
             "--summary-out", str(tmp_path / "s.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "r.csv").exists()

    def test_format_1_thresholds_exit_2_naming_both_versions(self, tmp_path, capsys):
        # The worked file as format 1 wrote it: its version is refused
        # before its keys, so created_utc is not the fault named.
        cal, thr = self._calibrated(tmp_path)
        thr.write_text(FORMAT_1_THRESHOLDS, encoding="utf-8")
        capsys.readouterr()
        code = main(
            ["evaluate", "--test", str(cal), "--thresholds", str(thr),
             "--records-out", str(tmp_path / "r.csv"),
             "--summary-out", str(tmp_path / "s.csv")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {thr}: unknown format_version 1, expected 2\n"
        )
        assert not (tmp_path / "r.csv").exists() and not (tmp_path / "s.csv").exists()

    def test_thresholds_read_before_the_test_csv(self, tmp_path, capsys):
        # The parsed rows go straight into evaluation, so the thresholds
        # are read first: a bad thresholds file is the error reported
        # even when the test CSV is missing as well.
        thr = tmp_path / "thr.json"
        thr.write_text("[1, 2]", encoding="utf-8")
        code = main(
            ["evaluate", "--test", str(tmp_path / "missing.csv"), "--thresholds", str(thr),
             "--records-out", str(tmp_path / "r.csv"),
             "--summary-out", str(tmp_path / "s.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {thr}") and "must be a JSON object" in err

    def test_condition_flag_holding_a_carriage_return_exits_2(self, tmp_path, capsys):
        cal, thr = self._calibrated(tmp_path)
        capsys.readouterr()
        code = main(
            ["evaluate", "--test", str(cal), "--thresholds", str(thr),
             "--records-out", str(tmp_path / "r.csv"),
             "--summary-out", str(tmp_path / "s.csv"), "--condition", "a\rb"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --condition must not hold a carriage return, got 'a\\rb'\n"
        )
        assert not (tmp_path / "r.csv").exists()

    def test_out_of_range_severity_flag_exits_2(self, tmp_path, capsys):
        cal, thr = self._calibrated(tmp_path)
        capsys.readouterr()
        code = main(
            ["evaluate", "--test", str(cal), "--thresholds", str(thr),
             "--records-out", str(tmp_path / "r.csv"),
             "--summary-out", str(tmp_path / "s.csv"), "--severity", "9"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: --severity must be in [0, 5], got 9\n"
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("summary", ["out.csv", "./out.csv", "sub/../out.csv"])
    def test_records_and_summary_naming_one_file_exit_2(self, tmp_path, capsys, summary):
        # Rejected before the inputs are read: neither of them exists.
        (tmp_path / "sub").mkdir()
        records = str(tmp_path / "out.csv")
        code = main(
            ["evaluate", "--test", str(tmp_path / "missing.csv"),
             "--thresholds", str(tmp_path / "missing.json"),
             "--records-out", records, "--summary-out", str(tmp_path / summary)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --records-out and --summary-out name the same file {records!r}; "
            "the summary would overwrite the records\n"
        )
        assert not (tmp_path / "out.csv").exists()


    @pytest.mark.parametrize("input_flag, output_flag, message", [
        ("--test", "--records-out", "the records would overwrite the test data"),
        ("--test", "--summary-out", "the summary would overwrite the test data"),
        ("--thresholds", "--records-out", "the records would overwrite the thresholds"),
        ("--thresholds", "--summary-out", "the summary would overwrite the thresholds"),
    ])
    def test_output_naming_an_input_exits_2(
        self, tmp_path, capsys, input_flag, output_flag, message
    ):
        cal, thr = self._calibrated(tmp_path)
        capsys.readouterr()
        files = {"--test": str(cal), "--thresholds": str(thr),
                 "--records-out": str(tmp_path / "r.csv"),
                 "--summary-out": str(tmp_path / "s.csv")}
        files[output_flag] = files[input_flag]
        before = {name: Path(files[name]).read_bytes() for name in ("--test", "--thresholds")}
        assert main(["evaluate", *(x for item in files.items() for x in item)]) == 2
        assert capsys.readouterr().err == (
            f"error: {input_flag} and {output_flag} name the same file "
            f"{files[input_flag]!r}; {message}\n"
        )
        assert {name: Path(files[name]).read_bytes() for name in before} == before
        assert not (tmp_path / "r.csv").exists() and not (tmp_path / "s.csv").exists()

@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_non_object_json_artifact_exits_2(tmp_path, capsys, command):
    artifact = tmp_path / "artifact.json"
    artifact.write_text("[1, 2]", encoding="utf-8")
    if command == "evaluate":
        test = tmp_path / "test.csv"
        test.write_text(WORKED_CAL_CSV, encoding="utf-8")
        argv = ["evaluate", "--test", str(test), "--thresholds", str(artifact),
                "--records-out", str(tmp_path / "r.csv"),
                "--summary-out", str(tmp_path / "s.csv")]
    else:
        cfg = write_config(tmp_path, manifest="artifact.json")
        argv = ["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be a JSON object" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "key, first, second", [("alpha", 0.1, 0.5), ("k_classes", 6, 4)], ids=["top", "generator"]
)
def test_config_with_a_repeated_key_exits_2(tmp_path, capsys, key, first, second):
    # Either value alone is valid, so only the repeat is at fault.
    cfg = write_config(tmp_path)
    text = cfg.read_text(encoding="utf-8")
    assert text.count(f'"{key}": {first}') == 1
    text = text.replace(f'"{key}": {first}', f'"{key}": {first}, "{key}": {second}')
    cfg.write_text(text, encoding="utf-8")
    assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: duplicate key {key!r}\n"
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("where", ["top level", "files entry"])
def test_manifest_with_a_repeated_key_exits_2(tmp_path, capsys, where):
    main(["gen", str(write_config(tmp_path)), "--out", str(tmp_path / "data")])
    capsys.readouterr()
    manifest = tmp_path / "data" / "manifest.json"
    # A valid manifest but for one repeated key, whose last value is valid too.
    text = json.dumps({"format_version": 1, "k_classes": 6, "files": [_cal(), _test()]})
    if where == "top level":
        key, text = "k_classes", text.replace('"k_classes": 6', '"k_classes": 2, "k_classes": 6')
    else:
        key, text = "role", text.replace('"role": "test"', '"role": "test", "role": "test"')
    manifest.write_text(text, encoding="utf-8")
    cfg = write_config(tmp_path, name="cfg_m.json", manifest="data/manifest.json")
    assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]) == 2
    assert capsys.readouterr().err == f"error: {manifest}: duplicate key {key!r}\n"
    assert not (tmp_path / "sw").exists()


def test_thresholds_with_a_repeated_key_exits_2(tmp_path, capsys):
    # The second q_abs would abstain on every row if it were kept.
    cal, thr = tmp_path / "cal.csv", tmp_path / "thr.json"
    cal.write_text(WORKED_CAL_CSV, encoding="utf-8")
    main(["calibrate", "--cal", str(cal), "--alpha", "0.5", "--out", str(thr)])
    capsys.readouterr()
    thr.write_text(thr.read_text(encoding="utf-8").rstrip()[:-1] + ', "q_abs": -1e9}',
                   encoding="utf-8")
    assert main(["evaluate", "--test", str(cal), "--thresholds", str(thr),
                 "--records-out", str(tmp_path / "r.csv"),
                 "--summary-out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err == f"error: {thr}: duplicate key 'q_abs'\n"
    assert not (tmp_path / "r.csv").exists() and not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command", ["calibrate", "sweep data", "sweep config"])
def test_non_utf8_input_exits_2_naming_the_file(tmp_path, capsys, command):
    if command == "calibrate":
        bad = tmp_path / "cal.csv"
        bad.write_bytes(WORKED_CAL_CSV.encode("utf-8").replace(b"m2,", b"m\xe9,"))
        argv = ["calibrate", "--cal", str(bad), "--out", str(tmp_path / "t.json")]
        where = f"{bad}:5: byte 0xe9"
    elif command == "sweep data":
        main(["gen", str(write_config(tmp_path)), "--out", str(tmp_path / "data")])
        capsys.readouterr()
        bad = tmp_path / "data" / "rain_s3.csv"
        with open(bad, "ab") as fh:
            fh.write(b"caf\xe9,0\n")  # line 202, after the header and 200 rows
        cfg = write_config(tmp_path, name="cfg_m.json", manifest="data/manifest.json")
        argv = ["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]
        where = f"condition 'rain' failed: {bad}:202: byte 0xe9"
    else:
        bad = tmp_path / "cfg.json"
        bad.write_bytes(b'{"conditions": ["caf\xe9"]}')
        argv = ["sweep", str(bad), "--out-dir", str(tmp_path / "sw")]
        where = f"{bad}: byte 0xe9 at offset 20"
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {where} is not valid UTF-8 (invalid continuation byte)\n"
    )


def _cal(condition="rain", **fields):
    return {"path": "rain_cal.csv", "condition": condition, "severity": 0,
            "role": "calibration", **fields}


def _test(condition="rain", **fields):
    return {"path": "rain_s3.csv", "condition": condition, "severity": 3,
            "role": "test", **fields}


@pytest.mark.parametrize(
    "manifest, named",
    [
        ({"k_classes": 3.5}, "'k_classes'"),
        ({"format_version": 1.0}, "'format_version'"),
        ({"format_version": 2}, "format_version"),
        ({"files": {}}, "'files'"),
        ({"files": []}, "no files"),
        ({"files": [_cal(), _test(severity=2.7)]}, "'severity'"),
        ({"files": [_cal(), _test(severity=True)]}, "'severity'"),
        ({"files": [_cal(), _test(severity=9)]}, "'severity'"),
        ({"files": [_cal(), _test(condition=7)]}, "'condition'"),
        ({"files": [_cal(), _test(role="holdout")]}, "'role'"),
        ({"files": [_cal(), {"path": "x.csv", "condition": "rain", "severity": 3,
                             "rol": "test"}]}, "'rol'"),
        ({"files": [_cal(), {"path": "x.csv", "severity": 3}]}, "'condition'"),
        ({"files": [_cal(role="test"), _test()]}, "0 calibration files"),
        ({"files": [_cal(), _cal(), _test()]}, "2 calibration files"),
        ({"files": [_cal(severity=3), _test()]}, "severity 0"),
        ({"files": [_cal(), _test(), _cal("fog")]}, "'fog' has no test files"),
        ({"files": [_cal(), _test(), _test(path="x.csv")]},
         "files 'rain_s3.csv' and 'x.csv' are both test files for condition 'rain' severity 3"),
        ({"files": [_cal(), _test(condition="a\rb")]}, "'condition'"),
        ({"k_classes": 1}, "key 'k_classes' must be an integer >= 2, got 1"),
        ({"k_classes": 0}, "key 'k_classes' must be an integer >= 2, got 0"),
        ({"k_classes": -3}, "key 'k_classes' must be an integer >= 2, got -3"),
    ],
)
def test_malformed_manifest_exits_2_naming_the_fault(tmp_path, capsys, manifest, named):
    doc = {"format_version": 1, "k_classes": 6, "files": [_cal(), _test()], **manifest}
    (tmp_path / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    cfg = write_config(tmp_path, manifest="manifest.json")
    assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "sw").exists()


class TestSweep:
    def test_matches_calibrate_evaluate_pipeline(self, tmp_path):
        cfg = write_config(tmp_path, severities=[3])
        main(["gen", str(cfg), "--out", str(tmp_path / "data")])
        thr = tmp_path / "thr.json"
        main(
            ["calibrate", "--cal", str(tmp_path / "data" / "rain_cal.csv"),
             "--alpha", "0.1", "--out", str(thr)]
        )
        rec, summ = tmp_path / "rec.csv", tmp_path / "sum.csv"
        main(
            ["evaluate", "--test", str(tmp_path / "data" / "rain_s3.csv"),
             "--thresholds", str(thr), "--records-out", str(rec),
             "--summary-out", str(summ), "--condition", "rain", "--severity", "3"]
        )
        assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]) == 0
        assert rec.read_bytes() == (tmp_path / "sw" / "records_rain_s3.csv").read_bytes()
        assert summ.read_bytes() == (tmp_path / "sw" / "summary.csv").read_bytes()

    def test_manifest_mode_equals_generate_mode(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen", str(cfg), "--out", str(tmp_path / "data")])
        cfg_m = write_config(tmp_path, name="cfg_m.json", manifest="data/manifest.json")
        main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")])
        main(["sweep", str(cfg_m), "--out-dir", str(tmp_path / "swm")])
        for name in ("summary.csv", "summary.json", "heatmap.csv",
                     "records_rain_s0.csv", "records_rain_s3.csv"):
            assert (tmp_path / "sw" / name).read_bytes() == (
                tmp_path / "swm" / name
            ).read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["sweep", str(cfg), "--out-dir", str(tmp_path / "a")])
        main(["sweep", str(cfg), "--out-dir", str(tmp_path / "b")])
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_jobs_flag_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0 and "--jobs" not in capsys.readouterr().out
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw"), "--jobs", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 3" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_unreachable_alpha_warns_as_calibrate_does(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha=0.001, n_calibration=50)
        assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("warning: q_conf=inf") and captured.err.count("\n") == 1
        assert "[rain] q_conf=inf " in captured.out and "warning" not in captured.out
        main(["calibrate", "--cal", str(tmp_path / "sw" / "data" / "rain_cal.csv"),
              "--alpha", "0.001", "--out", str(tmp_path / "thr.json")])
        assert capsys.readouterr().err == captured.err

    def test_closed_stdout_ends_the_sweep(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, conditions=["fog", "rain"])
        stdout = ClosedAfterFirstLine()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]) == 2
        # one error line: the first condition's progress line fails and
        # no later condition runs
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
        assert stdout.getvalue() == f"generated dataset under {tmp_path / 'sw' / 'data'}\n"
        assert [p.name for p in (tmp_path / "sw").iterdir()] == ["data"]

    @pytest.mark.parametrize("command", ["gen", "sweep"])
    def test_closed_block_buffered_stdout_exits_2(self, tmp_path, command):
        cfg = write_config(tmp_path, conditions=["fog", "rain"])
        out_flag = "--out" if command == "gen" else "--out-dir"
        proc = run_with_closed_stdout([command, str(cfg), out_flag, str(tmp_path / "o")])
        assert (proc.returncode, proc.stderr) == (2, "error: [Errno 32] Broken pipe\n")

    def test_expected_outputs_exist(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")])
        for name in ("summary.csv", "summary.json", "heatmap.csv",
                     "records_rain_s0.csv", "roc_rain_s0.csv",
                     "records_rain_s3.csv", "roc_rain_s3.csv"):
            assert (tmp_path / "sw" / name).exists(), name
        heatmap = (tmp_path / "sw" / "heatmap.csv").read_text(encoding="utf-8")
        assert heatmap.splitlines()[0] == "metric,condition,severity_0,severity_3"
        assert any(line.startswith("abstention_rate,rain") for line in heatmap.splitlines())

    def test_degenerate_condition_yields_partial_and_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, severities=[1])
        main(["gen", str(cfg), "--out", str(tmp_path / "data")])
        capsys.readouterr()
        # an all-correct calibration file for a second condition
        degen_cal = tmp_path / "data" / "degen_cal.csv"
        degen_cal.write_text(
            "sample_id,label,prob_0,prob_1,prob_2,prob_3,prob_4,prob_5\n"
            + "".join(f"d{i},0,0.95,0.01,0.01,0.01,0.01,0.01\n" for i in range(4)),
            encoding="utf-8",
        )
        manifest_path = tmp_path / "data" / "manifest.json"
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
        doc["files"].append(
            {"path": "degen_cal.csv", "condition": "degen", "severity": 0,
             "role": "calibration"}
        )
        doc["files"].append(
            {"path": "rain_s1.csv", "condition": "degen", "severity": 1,
             "role": "test"}
        )
        manifest_path.write_text(json.dumps(doc), encoding="utf-8")

        cfg_m = write_config(tmp_path, name="cfg_m.json", severities=[1],
                             manifest="data/manifest.json")
        code = main(["sweep", str(cfg_m), "--out-dir", str(tmp_path / "sw")])
        assert code == 3
        err = capsys.readouterr().err
        assert "error:" in err and "degen" in err
        assert (tmp_path / "sw" / "summary.csv.partial").exists()
        assert (tmp_path / "sw" / "heatmap.csv.partial").exists()
        assert not (tmp_path / "sw" / "summary.csv").exists()
        # the healthy condition still produced its group outputs
        assert (tmp_path / "sw" / "records_rain_s1.csv").exists()

    def test_conditions_sharing_a_file_name_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, conditions=COLLIDING)
        assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]) == 2
        assert capsys.readouterr().err == COLLISION_ERROR
        assert not (tmp_path / "sw").exists()

    def test_manifest_conditions_sharing_a_file_name_exit_2(self, tmp_path, capsys):
        main(["gen", str(write_config(tmp_path)), "--out", str(tmp_path / "data")])
        capsys.readouterr()
        doc = {"format_version": 1, "k_classes": 6, "files": [
            entry for cond in COLLIDING for entry in (_cal(cond), _test(cond))
        ]}
        (tmp_path / "data" / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
        cfg = write_config(tmp_path, name="cfg_m.json", manifest="data/manifest.json")
        assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]) == 2
        assert capsys.readouterr().err == COLLISION_ERROR
        assert not (tmp_path / "sw").exists()

    def test_two_test_files_for_one_group_exit_2(self, tmp_path, capsys):
        main(["gen", str(write_config(tmp_path, severities=[1, 2])),
              "--out", str(tmp_path / "data")])
        capsys.readouterr()
        manifest = tmp_path / "data" / "manifest.json"
        doc = {"format_version": 1, "k_classes": 6, "files": [
            _cal(), _test(path="rain_s1.csv", severity=1),
            _test(path="rain_s2.csv", severity=1),
        ]}
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        cfg = write_config(tmp_path, name="cfg_m.json", manifest="data/manifest.json")
        assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]) == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: manifest: files 'rain_s1.csv' and 'rain_s2.csv' "
            "are both test files for condition 'rain' severity 1\n"
        )
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("name", ["fog_cal.csv", "fog_s3.csv"])
    def test_file_with_another_class_count_fails_its_condition(self, tmp_path, capsys, name):
        main(["gen", str(write_config(tmp_path, conditions=["fog", "rain"])),
              "--out", str(tmp_path / "data")])
        capsys.readouterr()
        bad = tmp_path / "data" / name
        bad.write_text(WORKED_CAL_CSV, encoding="utf-8")  # 2 classes, not 6
        cfg = write_config(tmp_path, name="cfg_m.json", manifest="data/manifest.json")
        assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]) == 2
        assert capsys.readouterr().err == (
            f"error: condition 'fog' failed: {bad}: 2 classes, manifest declares 6\n"
        )
        # fog's severity-0 outputs, if written before its test file failed,
        # keep their final names: this run finished them
        fog = {"records_fog_s0.csv", "roc_fog_s0.csv"}
        assert {p.name for p in (tmp_path / "sw").iterdir()} == {
            "records_rain_s0.csv", "roc_rain_s0.csv", "records_rain_s3.csv",
            "roc_rain_s3.csv", "summary.csv.partial", "summary.json.partial",
            "heatmap.csv.partial", *(fog if name == "fog_s3.csv" else ()),
        }

    def test_malformed_later_condition_keeps_earlier_outputs(self, tmp_path, capsys):
        main(["gen", str(write_config(tmp_path, conditions=["fog", "rain"])),
              "--out", str(tmp_path / "data")])
        capsys.readouterr()
        bad = tmp_path / "data" / "rain_s3.csv"
        with open(bad, "a", encoding="utf-8") as fh:
            fh.write("z,0\n")  # line 202, after the header and 200 rows
        cfg = write_config(tmp_path, name="cfg_m.json", manifest="data/manifest.json")
        assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]) == 2
        assert capsys.readouterr().err == (
            f"error: condition 'rain' failed: {bad}:202: expected 8 cells, got 2\n"
        )
        assert {p.name for p in (tmp_path / "sw").iterdir()} == {
            "records_fog_s0.csv", "roc_fog_s0.csv", "records_fog_s3.csv", "roc_fog_s3.csv",
            "records_rain_s0.csv", "roc_rain_s0.csv",
            "summary.csv.partial", "summary.json.partial", "heatmap.csv.partial",
        }
        summary = (tmp_path / "sw" / "summary.csv.partial").read_text(encoding="utf-8")
        assert [line.split(",")[:2] for line in summary.splitlines()[1:]] == [
            ["fog", "0"], ["fog", "3"], ["rain", "0"],
        ]

    def test_failed_sweep_leaves_no_summaries_of_an_earlier_run(self, tmp_path, capsys):
        main(["gen", str(write_config(tmp_path, conditions=["fog", "rain"])),
              "--out", str(tmp_path / "data")])
        cfg = write_config(tmp_path, name="cfg_m.json", manifest="data/manifest.json")
        assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]) == 0
        capsys.readouterr()
        bad = tmp_path / "data" / "fog_s3.csv"
        lines = bad.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1].split(",", 1)[0] + ",0,1.5" + ",-0.1" * 5 + "\n"
        bad.write_text("".join(lines), encoding="utf-8")
        assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]) == 2
        out = capsys.readouterr().out
        assert (
            f"wrote {tmp_path / 'sw' / 'summary.csv.partial'}\n"
            f"wrote {tmp_path / 'sw' / 'summary.json.partial'}\n"
            f"wrote {tmp_path / 'sw' / 'heatmap.csv.partial'}\n"
        ) in out
        names = {p.name for p in (tmp_path / "sw").iterdir()}
        assert {"summary.csv.partial", "summary.json.partial", "heatmap.csv.partial"} <= names
        assert not names & {"summary.csv", "summary.json", "heatmap.csv"}
        summary = (tmp_path / "sw" / "summary.csv.partial").read_text(encoding="utf-8")
        assert [line.split(",")[:2] for line in summary.splitlines()[1:]] == [
            ["fog", "0"], ["rain", "0"], ["rain", "3"],
        ]

    def test_failed_summary_write_in_a_failed_sweep_leaves_only_partials(
        self, tmp_path, capsys, monkeypatch
    ):
        # rain fails, so the summaries go to their .partial names, and the
        # summary.json write fails mid-file: only summary.csv.partial is
        # left of them.
        main(["gen", str(write_config(tmp_path, conditions=["fog", "rain"])),
              "--out", str(tmp_path / "data")])
        capsys.readouterr()
        with open(tmp_path / "data" / "rain_s3.csv", "a", encoding="utf-8") as fh:
            fh.write("z,0\n")
        write_summary = cli.write_summary

        def failing_summary(summaries, path, format):
            if format != "json":
                return write_summary(summaries, path, format=format)
            with pytest.MonkeyPatch.context() as patch:
                fail_second_write(patch)
                return write_summary(summaries, path, format=format)

        monkeypatch.setattr(cli, "write_summary", failing_summary)
        cfg = write_config(tmp_path, name="cfg_m.json", manifest="data/manifest.json")
        assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]) == 2
        assert capsys.readouterr().err.endswith("error: [Errno 28] No space left on device\n")
        assert {p.name for p in (tmp_path / "sw").iterdir()} == {
            "records_fog_s0.csv", "roc_fog_s0.csv", "records_fog_s3.csv", "roc_fog_s3.csv",
            "records_rain_s0.csv", "roc_rain_s0.csv", "summary.csv.partial",
        }

    def test_records_write_failing_mid_file_leaves_no_final_name(
        self, tmp_path, capsys, monkeypatch
    ):
        # The records write fails after its header is written; the outputs
        # left are those a malformed test file leaves
        # (test_malformed_later_condition_keeps_earlier_outputs).
        main(["gen", str(write_config(tmp_path, conditions=["fog", "rain"])),
              "--out", str(tmp_path / "data")])
        capsys.readouterr()
        write_records = cli.write_records_csv

        def failing_records(ev, path):
            if path.name != "records_rain_s3.csv":
                return write_records(ev, path)
            with pytest.MonkeyPatch.context() as patch:
                fail_second_write(patch)
                return write_records(ev, path)

        monkeypatch.setattr(cli, "write_records_csv", failing_records)
        cfg = write_config(tmp_path, name="cfg_m.json", manifest="data/manifest.json")
        assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]) == 2
        assert capsys.readouterr().err == (
            "error: condition 'rain' failed: [Errno 28] No space left on device\n"
        )
        assert {p.name for p in (tmp_path / "sw").iterdir()} == {
            "records_fog_s0.csv", "roc_fog_s0.csv", "records_fog_s3.csv", "roc_fog_s3.csv",
            "records_rain_s0.csv", "roc_rain_s0.csv",
            "summary.csv.partial", "summary.json.partial", "heatmap.csv.partial",
        }

    def test_closed_stdout_rerun_leaves_no_earlier_output_under_a_final_name(
        self, tmp_path, capsys, monkeypatch
    ):
        # fog's first progress line fails, so this run finishes no output:
        # every file of the earlier run is renamed, rain's and the summaries
        # included.
        cfg = write_config(tmp_path, conditions=["fog", "rain"])
        sw = tmp_path / "sw"
        assert main(["sweep", str(cfg), "--out-dir", str(sw)]) == 0
        finished = {p.name for p in sw.iterdir()} - {"data"}
        assert {"summary.csv", "records_rain_s3.csv", "roc_rain_s3.csv"} <= finished
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", ClosedAfterFirstLine())
        assert main(["sweep", str(cfg), "--out-dir", str(sw)]) == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
        assert {p.name for p in sw.iterdir()} == {
            "data", *(name + ".partial" for name in finished)
        }

    def test_failed_summary_write_in_a_clean_rerun_leaves_no_earlier_summary_final(
        self, tmp_path, capsys, monkeypatch
    ):
        # Every condition finishes, then the summary.json write fails
        # mid-file: this run's summary.csv keeps its final name, and the
        # earlier run's files, moved aside before the run, stay .partial.
        main(["gen", str(write_config(tmp_path, conditions=["fog", "rain"])),
              "--out", str(tmp_path / "data")])
        cfg = write_config(tmp_path, name="cfg_m.json", manifest="data/manifest.json")
        sw = tmp_path / "sw"
        assert main(["sweep", str(cfg), "--out-dir", str(sw)]) == 0
        earlier = (sw / "summary.json").read_bytes()
        capsys.readouterr()
        write_summary = cli.write_summary

        def failing_summary(summaries, path, format):
            if format != "json":
                return write_summary(summaries, path, format=format)
            with pytest.MonkeyPatch.context() as patch:
                fail_second_write(patch)
                return write_summary(summaries, path, format=format)

        monkeypatch.setattr(cli, "write_summary", failing_summary)
        assert main(["sweep", str(cfg), "--out-dir", str(sw)]) == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        groups = {
            "records_fog_s0.csv", "roc_fog_s0.csv", "records_fog_s3.csv", "roc_fog_s3.csv",
            "records_rain_s0.csv", "roc_rain_s0.csv", "records_rain_s3.csv", "roc_rain_s3.csv",
        }
        assert {p.name for p in sw.iterdir()} == {
            *groups, *(name + ".partial" for name in groups), "summary.csv",
            "summary.csv.partial", "summary.json.partial", "heatmap.csv.partial",
        }
        assert (sw / "summary.json.partial").read_bytes() == earlier

    def test_directory_under_a_summary_name_fails_only_the_summaries(self, tmp_path, capsys):
        # A directory under summary.json fails that write on every run but
        # is never moved, so each rerun runs every condition and leaves no
        # earlier output under a final name: its summary.csv is written, and
        # the earlier files stay under their .partial names.
        cfg = write_config(tmp_path, conditions=["fog", "rain"])
        sw = tmp_path / "sw"
        assert main(["sweep", str(cfg), "--out-dir", str(sw)]) == 0
        (sw / "summary.json").unlink()
        (sw / "summary.json").mkdir()
        (sw / "summary.csv").write_text("earlier\n", encoding="utf-8")
        groups = {
            "records_fog_s0.csv", "roc_fog_s0.csv", "records_fog_s3.csv", "roc_fog_s3.csv",
            "records_rain_s0.csv", "roc_rain_s0.csv", "records_rain_s3.csv", "roc_rain_s3.csv",
        }
        for _ in range(2):
            earlier = (sw / "summary.csv").read_bytes()
            capsys.readouterr()
            assert main(["sweep", str(cfg), "--out-dir", str(sw)]) == 2
            out, err = capsys.readouterr()
            assert "[fog]" in out and "[rain]" in out
            assert err == f"error: [Errno 21] Is a directory: '{sw / 'summary.json'}'\n"
            assert {p.name for p in sw.iterdir()} == {
                "data", "summary.json", "summary.csv", "summary.csv.partial",
                "heatmap.csv.partial", *groups, *(name + ".partial" for name in groups),
            }
            assert (sw / "summary.json").is_dir()
            assert (sw / "summary.csv.partial").read_bytes() == earlier
            assert (sw / "summary.csv").read_text(encoding="utf-8") != "earlier\n"

    def test_directory_under_a_partial_name_is_refused_up_front(self, tmp_path, capsys):
        # A directory sits under the .partial name of the earlier run's
        # records file for a group, where that file would move: the rerun
        # stops before anything moves or is written, and before rain's
        # malformed test file is read.
        main(["gen", str(write_config(tmp_path, conditions=["fog", "rain"])),
              "--out", str(tmp_path / "data")])
        cfg = write_config(tmp_path, name="cfg_m.json", manifest="data/manifest.json")
        sw = tmp_path / "sw"
        assert main(["sweep", str(cfg), "--out-dir", str(sw)]) == 0
        capsys.readouterr()
        (sw / "records_rain_s3.csv.partial").mkdir()
        with open(tmp_path / "data" / "rain_s3.csv", "a", encoding="utf-8") as fh:
            fh.write("z,0\n")  # line 202, after the header and 200 rows
        before = tree_bytes(sw)
        assert main(["sweep", str(cfg), "--out-dir", str(sw)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: {sw / 'records_rain_s3.csv.partial'} is not a regular file; "
            "earlier outputs move there\n"
        ))
        assert tree_bytes(sw) == before
        names = {p.name for p in sw.iterdir()}
        assert names == {str(name) for name in before} | {"records_rain_s3.csv.partial"}
        assert (sw / "records_rain_s3.csv.partial").is_dir()

    def test_interrupted_sweep_renames_what_it_did_not_finish(
        self, tmp_path, capsys, monkeypatch
    ):
        # An interrupt at rain's second ROC write: what this run finished
        # (fog's files, rain's severity-0 files and records_rain_s3.csv)
        # holds the final names, and every file of the earlier run stays
        # under its .partial name, roc_rain_s3.csv and the summaries included.
        write_roc = cli.write_roc_csv

        def interrupted_roc(curve, path):
            if path.name == "roc_rain_s3.csv":
                raise KeyboardInterrupt
            return write_roc(curve, path)

        def interrupt(data):
            monkeypatch.setattr(cli, "write_roc_csv", interrupted_roc)

        with pytest.raises(KeyboardInterrupt):
            self._rerun(tmp_path, capsys, ["fog", "rain"], interrupt)
        finished = {
            "records_fog_s0.csv", "roc_fog_s0.csv", "records_fog_s3.csv", "roc_fog_s3.csv",
            "records_rain_s0.csv", "roc_rain_s0.csv", "records_rain_s3.csv",
        }
        earlier = finished | {"roc_rain_s3.csv", "summary.csv", "summary.json", "heatmap.csv"}
        assert {p.name for p in (tmp_path / "sw").iterdir()} == {
            *finished, *(name + ".partial" for name in earlier)
        }

    def _rerun(self, tmp_path, capsys, conditions, edit):
        """Sweep ``conditions`` from a manifest into ``sw``, apply ``edit``
        to the data directory, sweep again and return that run's exit code
        and standard output."""
        main(["gen", str(write_config(tmp_path, conditions=conditions)),
              "--out", str(tmp_path / "data")])
        cfg = write_config(tmp_path, name="cfg_m.json", manifest="data/manifest.json")
        assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]) == 0
        capsys.readouterr()
        edit(tmp_path / "data")
        code = main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")])
        return code, capsys.readouterr().out

    def test_all_fail_rerun_leaves_only_header_partial_summaries(self, tmp_path, capsys):
        def break_calibration(data):
            with open(data / "rain_cal.csv", "a", encoding="utf-8") as fh:
                fh.write("x,0\n")

        code, out = self._rerun(tmp_path, capsys, ["rain"], break_calibration)
        assert code == 2
        sw = tmp_path / "sw"
        assert out.endswith(
            f"wrote {sw / 'summary.csv.partial'}\n"
            f"wrote {sw / 'summary.json.partial'}\n"
            f"wrote {sw / 'heatmap.csv.partial'}\n"
        )
        assert {p.name for p in sw.iterdir()} == {
            "records_rain_s0.csv.partial", "roc_rain_s0.csv.partial",
            "records_rain_s3.csv.partial", "roc_rain_s3.csv.partial",
            "summary.csv.partial", "summary.json.partial", "heatmap.csv.partial",
        }
        assert (sw / "summary.csv.partial").read_bytes() == (
            b"condition,severity,n,coverage,avg_set_size,avg_entropy,"
            b"avg_confidence,avg_margin,abstention_rate,auc\n"
        )
        assert (sw / "summary.json.partial").read_bytes() == b"[]\n"
        assert (sw / "heatmap.csv.partial").read_bytes() == b"metric,condition\n"

    def test_rerun_with_a_failing_calibration_file_renames_earlier_outputs(
        self, tmp_path, capsys
    ):
        def break_calibration(data):
            (data / "rain_cal.csv").write_text(WORKED_CAL_CSV, encoding="utf-8")

        sw = tmp_path / "sw"
        code, _ = self._rerun(tmp_path, capsys, ["fog", "rain"], break_calibration)
        assert code == 2
        fog = {"records_fog_s0.csv", "roc_fog_s0.csv", "records_fog_s3.csv", "roc_fog_s3.csv"}
        assert {p.name for p in sw.iterdir()} == {
            *fog, *(name + ".partial" for name in fog),
            "records_rain_s0.csv.partial", "roc_rain_s0.csv.partial",
            "records_rain_s3.csv.partial", "roc_rain_s3.csv.partial",
            "summary.csv.partial", "summary.json.partial", "heatmap.csv.partial",
        }

    def test_rerun_group_with_one_flag_class_leaves_no_roc_file(self, tmp_path, capsys):
        def all_correct(data):  # every top-1 right: no should-abstain flag set
            (data / "rain_s3.csv").write_text(
                "sample_id,label," + ",".join(f"prob_{j}" for j in range(6)) + "\n"
                + "".join(
                    f"t{i},{i % 6}," + ",".join("0.95" if j == i % 6 else "0.01"
                                                for j in range(6)) + "\n"
                    for i in range(12)
                ),
                encoding="utf-8",
            )

        code, _ = self._rerun(tmp_path, capsys, ["rain"], all_correct)
        assert code == 0
        sw = tmp_path / "sw"
        assert {p.name for p in sw.iterdir()} == {
            "records_rain_s0.csv", "roc_rain_s0.csv", "records_rain_s3.csv",
            "summary.csv", "summary.json", "heatmap.csv",
        }
        assert (sw / "summary.csv").read_text(encoding="utf-8").endswith(",\n")  # no AUC

    def test_finished_rerun_clears_partials_of_a_failed_run(self, tmp_path, capsys):
        main(["gen", str(write_config(tmp_path, conditions=["fog", "rain"])),
              "--out", str(tmp_path / "data")])
        cal = tmp_path / "data" / "rain_cal.csv"
        good = cal.read_bytes()
        cfg = write_config(tmp_path, name="cfg_m.json", manifest="data/manifest.json")
        sw = tmp_path / "sw"
        assert main(["sweep", str(cfg), "--out-dir", str(sw)]) == 0
        finished = tree_bytes(sw)
        cal.write_bytes(good + b"x,0\n")
        assert main(["sweep", str(cfg), "--out-dir", str(sw)]) == 2
        assert (sw / "summary.csv.partial").exists()
        assert (sw / "records_rain_s0.csv.partial").exists()
        cal.write_bytes(good)
        assert main(["sweep", str(cfg), "--out-dir", str(sw)]) == 0
        assert tree_bytes(sw) == finished

    def test_failed_rerun_keeps_earlier_files_only_as_partials(self, tmp_path, capsys):
        # rain fails at its last test file, then at its calibration file:
        # the second run finished no rain file, so the first run's rain
        # files are left under .partial names only.
        main(["gen", str(write_config(tmp_path, conditions=["fog", "rain"])),
              "--out", str(tmp_path / "data")])
        with open(tmp_path / "data" / "rain_s3.csv", "a", encoding="utf-8") as fh:
            fh.write("z,0\n")
        cfg = write_config(tmp_path, name="cfg_m.json", manifest="data/manifest.json")
        sw = tmp_path / "sw"
        assert main(["sweep", str(cfg), "--out-dir", str(sw)]) == 2
        assert (sw / "records_rain_s0.csv").exists()
        (tmp_path / "data" / "rain_cal.csv").write_text(WORKED_CAL_CSV, encoding="utf-8")
        assert main(["sweep", str(cfg), "--out-dir", str(sw)]) == 2
        fog = {"records_fog_s0.csv", "roc_fog_s0.csv", "records_fog_s3.csv", "roc_fog_s3.csv"}
        assert {p.name for p in sw.iterdir()} == {
            *fog, *(name + ".partial" for name in fog),
            "records_rain_s0.csv.partial", "roc_rain_s0.csv.partial",
            "summary.csv.partial", "summary.json.partial", "heatmap.csv.partial",
        }

    def _killed_rerun(self, tmp_path):
        """Sweep fog and rain from a manifest into ``sw``, date every
        output at the epoch, then rerun in a child killed with SIGKILL once
        it prints fog's severity-0 line; return the config, ``sw`` and the
        first run's files."""
        main(["gen", str(write_config(tmp_path, conditions=["fog", "rain"])),
              "--out", str(tmp_path / "data")])
        cfg = write_config(tmp_path, name="cfg_m.json", manifest="data/manifest.json")
        sw = tmp_path / "sw"
        assert main(["sweep", str(cfg), "--out-dir", str(sw)]) == 0
        first = tree_bytes(sw)
        for path in sw.iterdir():
            os.utime(path, ns=(0, 0))
        proc = subprocess.run(
            [sys.executable, "-c", KILLED_AFTER_LINE, "[fog] severity 0",
             "sweep", str(cfg), "--out-dir", str(sw)],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL
        assert proc.stdout.splitlines()[-1].startswith("[fog] severity 0: n=200 ")
        return cfg, sw, first

    def test_killed_rerun_leaves_no_earlier_output_under_a_final_name(self, tmp_path):
        # Only fog's severity-0 files were finished when the kill came;
        # every file of the first run sits under its .partial name, unchanged.
        _, sw, first = self._killed_rerun(tmp_path)
        finished = {"records_fog_s0.csv", "roc_fog_s0.csv"}
        assert {p.name for p in sw.iterdir()} == {
            *finished, *(f"{name}.partial" for name in first)
        }
        assert all((sw / name).stat().st_mtime_ns > 0 for name in finished)
        for name, data in first.items():
            partial = sw / f"{name}.partial"
            assert (partial.read_bytes(), partial.stat().st_mtime_ns) == (data, 0)

    def test_finished_rerun_after_a_kill_leaves_the_first_runs_tree(self, tmp_path):
        cfg, sw, first = self._killed_rerun(tmp_path)
        assert main(["sweep", str(cfg), "--out-dir", str(sw)]) == 0
        assert tree_bytes(sw) == first

    def test_rerun_after_a_kill_mid_write_removes_its_temporaries(self, tmp_path):
        # The first run dies while it fills records_rain_s3.csv; the rerun
        # removes that temporary and a stale one of the data tree, and
        # leaves look-alikes, a directory, a link and the temporary of a
        # name it does not own.
        cfg, sw = write_config(tmp_path), tmp_path / "sw"
        proc = subprocess.run(
            [sys.executable, "-c", KILLED_MID_WRITE, "records_rain_s3.csv",
             "sweep", str(cfg), "--out-dir", str(sw)],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL
        [temp] = sw.glob(".*")
        assert temp.name.startswith(".records_rain_s3.csv.") and temp.suffix == ".tmp"
        assert temp.read_text(encoding="utf-8") == "sample_id\n"
        (sw / "data" / STALE.format("rain_s0.csv")).write_text("stale\n", encoding="utf-8")
        kept = [".summary.csv.tmp", ".summary.csv.0123456789AB.tmp",
                STALE.format("summary.csv") + ".bak", STALE.format("thr.json")]
        for name in kept:
            (sw / name).write_text("mine\n", encoding="utf-8")
        (sw / STALE.format("roc_rain_s0.csv")).mkdir()
        (sw / STALE.format("heatmap.csv")).symlink_to(sw / kept[0])
        kept += [STALE.format("roc_rain_s0.csv"), STALE.format("heatmap.csv")]
        assert main(["sweep", str(cfg), "--out-dir", str(sw)]) == 0
        assert sorted(p.name for p in sw.rglob(".*")) == sorted(kept)
        assert (sw / kept[0]).read_text(encoding="utf-8") == "mine\n"

    @pytest.mark.parametrize(
        "what, name, first, holds",
        [
            ("rain_s3.csv", "records_fog_s0.csv", "a manifest file", "data"),
            ("rain_s3.csv", "roc_rain_s3.csv.partial", "a manifest file", "data"),
            ("rain_cal.csv", "summary.csv", "a manifest file", "data"),
            ("manifest", "summary.json", "the manifest", "manifest"),
            ("config", "heatmap.csv.partial", "the config", "config"),
            ("generating config", "summary.json", "the config", "config"),
        ],
    )
    def test_input_under_an_output_name_is_refused_up_front(
        self, tmp_path, capsys, what, name, first, holds
    ):
        # The data, the manifest and the config sit in the output directory,
        # and one input (``what``) carries a name the sweep owns: the sweep
        # stops before anything moves or is written.
        sw = tmp_path / "sw"
        main(["gen", str(write_config(tmp_path, conditions=["fog", "rain"])), "--out", str(sw)])
        capsys.readouterr()
        doc = json.loads((sw / "manifest.json").read_text(encoding="utf-8"))
        for entry in doc["files"]:
            if entry["path"] == what:
                (sw / what).rename(sw / name)
                entry["path"] = name
        manifest = name if what == "manifest" else "manifest.json"
        (sw / "manifest.json").unlink()
        (sw / manifest).write_text(json.dumps(doc), encoding="utf-8")
        cfg = write_config(sw, name=name if what.endswith("config") else "cfg_m.json",
                           conditions=["fog", "rain"],
                           **({} if what == "generating config" else {"manifest": manifest}))
        before = tree_bytes(sw)
        assert main(["sweep", str(cfg), "--out-dir", str(sw)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: {first} and --out-dir name the same file {str(sw / name)!r}; "
            f"the sweep output would overwrite the {holds}\n"
        ))
        assert tree_bytes(sw) == before

    def test_generating_config_under_a_data_file_name_is_refused_up_front(
        self, tmp_path, capsys
    ):
        # The config would be overwritten by the generated manifest: the
        # sweep stops before an earlier summary moves aside.
        sw = tmp_path / "sw"
        (sw / "data").mkdir(parents=True)
        (sw / "summary.csv").write_text("earlier\n", encoding="utf-8")
        cfg = write_config(sw / "data", name="manifest.json")
        before = tree_bytes(sw)
        assert main(["sweep", str(cfg), "--out-dir", str(sw)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: the config and --out-dir name the same file {str(cfg)!r}; "
            "the generated data would overwrite the config\n"
        ))
        assert tree_bytes(sw) == before

    def test_summary_rows_sorted_by_condition_then_severity(self, tmp_path):
        cfg = write_config(tmp_path, conditions=["rain", "fog"], severities=[3, 0])
        assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]) == 0
        summary = (tmp_path / "sw" / "summary.csv").read_text(encoding="utf-8")
        assert [line.split(",")[:2] for line in summary.splitlines()[1:]] == [
            ["fog", "0"], ["fog", "3"], ["rain", "0"], ["rain", "3"],
        ]
        docs = json.loads((tmp_path / "sw" / "summary.json").read_text(encoding="utf-8"))
        assert [(d["condition"], d["severity"]) for d in docs] == [
            ("fog", 0), ("fog", 3), ("rain", 0), ("rain", 3),
        ]

    def test_heatmap_quotes_condition_cells(self, tmp_path):
        cfg = write_config(tmp_path, conditions=["a,b", 'x"y'])
        assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]) == 0
        with open(tmp_path / "sw" / "summary.csv", encoding="utf-8", newline="") as fh:
            summary = {(row["condition"], row["severity"]): row for row in csv.DictReader(fh)}
        with open(tmp_path / "sw" / "heatmap.csv", encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["metric", "condition", "severity_0", "severity_3"]
        assert len(rows) == 7 * 2  # seven metrics, two conditions
        for metric, cond, *cells in rows:
            assert len(cells) == 2
            assert cells == [summary[(cond, sev)][metric] for sev in ("0", "3")]
        assert {row[1] for row in rows} == {"a,b", 'x"y'}
