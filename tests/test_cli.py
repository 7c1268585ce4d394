import numpy as np
import pytest

from mecopt.cli import DEFAULT_GRIDS, build_spec, main, parse_config_file
from mecopt import cli, earnings
from mecopt.earnings import DEFAULT_PARAMS, EarnFamily, EarnParams, eval_earning, fit_params
from helpers import README_CSV_HEADER


def test_run_prints_allocation_summary(capsys):
    assert main(["run", "--seed", "3", "--users", "4", "--servers", "2",
                 "--samples", "100"]) == 0
    out = capsys.readouterr().out
    assert "scenario seed=3" in out
    assert "objective=" in out
    assert out.count("\n") >= 6  # header + one line per user + totals


def test_run_baseline_method(capsys):
    assert main(["run", "--seed", "3", "--users", "3", "--servers", "2",
                 "--method", "random", "--samples", "10"]) == 0
    out = capsys.readouterr().out
    assert "method=random" in out
    assert out.rstrip().endswith("iters=0")


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--kind", "omega", "--methods", "random,optearn",
                 "--seeds", "2", "--grid", "1.0,2.0", "--seed", "5",
                 "--users", "4", "--servers", "2", "--samples", "50",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == README_CSV_HEADER
    assert len(lines) == 1 + 2 * 2 * 2


def test_large_sweep_keeps_the_given_sdp_tolerance(tmp_path, monkeypatch):
    calls = []

    def fake_run_sweep(kind, spec, methods, grid, **kwargs):
        calls.append((spec, kwargs))
        return []

    monkeypatch.setattr("mecopt.cli.run_sweep", fake_run_sweep)
    monkeypatch.setattr("mecopt.cli.emit_results", lambda rows, out, **kwargs: None)
    assert main(["sweep", "--kind", "omega", "--users", "100", "--servers", "20",
                 "--sdp-tol", "5e-5", "--seeds", "1", "--grid", "1.0",
                 "--out", str(tmp_path / "s.csv")]) == 0
    (spec, kwargs), = calls
    assert (spec.num_users, spec.num_servers) == (100, 20)
    assert kwargs["sdp_tol"] == 5e-5


def test_oracle_compare_small(capsys):
    code = main(["oracle-compare", "--max-users", "4", "--max-servers", "2",
                 "--instances", "3", "--samples", "200", "--seed", "9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bound<=exact on 3/3" in out
    lines = out.splitlines()
    per_instance = [int(line.rsplit("sdp_iters=", 1)[1]) for line in lines[:-1]]
    assert len(per_instance) == 3 and min(per_instance) > 0
    assert lines[-1].endswith(f"sdp iterations {sum(per_instance)}")


def test_oracle_compare_beyond_enumeration(capsys):
    code = main(["oracle-compare", "--max-users", "14", "--max-servers", "4",
                 "--instances", "2", "--samples", "100", "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bound<=exact on 2/2" in out
    sizes = [tuple(int(part.split("=")[1]) for part in line.split()[2:4])
             for line in out.splitlines()[:-1]]
    assert max(n ** k for k, n in sizes) > 1_000_000


@pytest.mark.parametrize("flag", ["--max-users", "--max-servers"])
def test_oracle_compare_rejects_fewer_than_two(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle-compare", flag, "1"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


_SMALL_SWEEP = ["sweep", "--kind", "omega", "--methods", "random", "--grid", "1.0",
                "--users", "2", "--servers", "2"]


@pytest.mark.parametrize("args, flag", [
    (["run", "--samples", "-1"], "--samples"),
    (["oracle-compare", "--samples", "-1"], "--samples"),
    (_SMALL_SWEEP + ["--seeds", "1", "--samples", "-3"], "--samples"),
    (_SMALL_SWEEP + ["--seeds", "0"], "--seeds"),
    (_SMALL_SWEEP + ["--seeds", "1", "--sdp-tol", "-1"], "--sdp-tol"),
    (_SMALL_SWEEP + ["--seeds", "1", "--sdp-tol", "0"], "--sdp-tol"),
    (_SMALL_SWEEP + ["--seeds", "1", "--sdp-tol", "nan"], "--sdp-tol"),
    (_SMALL_SWEEP + ["--seeds", "1", "--methods", "random,fastest"], "--methods"),
    (_SMALL_SWEEP + ["--seeds", "1", "--grid", "1.0,two"], "--grid"),
    (_SMALL_SWEEP + ["--seeds", "1", "--grid", "-1"], "--grid"),
    (_SMALL_SWEEP + ["--seeds", "1", "--grid", "1.0,nan"], "--grid"),
    (_SMALL_SWEEP + ["--seeds", "1", "--kind", "smin", "--grid", "5e7"], "--grid"),
    (_SMALL_SWEEP + ["--seeds", "1", "--kind", "users", "--grid", "0"], "--grid"),
    (_SMALL_SWEEP + ["--seeds", "1", "--kind", "users", "--grid", "2.5"], "--grid"),
    (_SMALL_SWEEP + ["--seeds", "1", "--users", "0"], "--users"),
    (_SMALL_SWEEP + ["--seeds", "1", "--servers", "0"], "--servers"),
    (["run", "--omega", "-1"], "--omega"),
    (["run", "--omega", "nan"], "--omega"),
    (["run", "--omega", "inf"], "--omega"),
    (["run", "--users", "0"], "--users"),
    (["run", "--servers", "0"], "--servers"),
    (["oracle-compare", "--users", "0"], "--users"),
    (["oracle-compare", "--servers", "0"], "--servers"),
    (["run", "--config", "omega.cfg", "--users", "2", "--servers", "2"], "weight_omega"),
    (_SMALL_SWEEP + ["--seeds", "1", "--config", "omega.cfg"], "weight_omega"),
    (["oracle-compare", "--config", "omega.cfg"], "weight_omega"),
    (_SMALL_SWEEP[:-4] + ["--seeds", "1", "--config", "users.cfg"], "num_users"),
    (["run", "--config", "rate.cfg", "--users", "2", "--servers", "2"], "rate_norm_bps"),
    (["oracle-compare", "--instances", "0"], "--instances"),
    (["oracle-compare", "--instances", "-2"], "--instances"),
    (_SMALL_SWEEP + ["--seeds", "1", "--large"], "--large"),
    (["run", "--seed", "-1", "--users", "2", "--servers", "2"], "--seed"),
    (_SMALL_SWEEP + ["--seeds", "1", "--methods", "random,random"], "--methods"),
])
def test_bad_counts_are_rejected_at_parse_time(args, flag, tmp_path, capsys):
    # config files whose settings the model rejects
    (tmp_path / "omega.cfg").write_text("weight_omega = -1\n")
    (tmp_path / "users.cfg").write_text("num_users = 0\n")
    (tmp_path / "rate.cfg").write_text("downlink_rate_bps = 1e6, 1e12\n")
    args = [str(tmp_path / a) if a.endswith(".cfg") else a for a in args]
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as exc:
        main(args + (["--out", str(out)] if args[0] == "sweep" else []))
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_fit_earnings_roundtrip(tmp_path, capsys):
    params = DEFAULT_PARAMS[EarnFamily.EXP]
    path = tmp_path / "samples.txt"
    xs = np.linspace(0, 1, 40)
    path.write_text("\n".join(
        f"{x},{eval_earning(params, 1.0, float(x))}" for x in xs))
    assert main(["fit-earnings", "--family", "exp", "--samples", str(path)]) == 0
    out = capsys.readouterr().out
    assert "alpha=89.9" in out
    assert "status=converged" in out


@pytest.mark.parametrize("golden_steps", [earnings._GOLDEN_STEPS, 0],
                         ids=["converged", "grid-only"])
def test_fit_earnings_prints_params_that_construct_the_fit(golden_steps, tmp_path,
                                                          capsys, monkeypatch):
    # the power fit of score = 3x has beta just under 1, which a rounded
    # print turns into a beta EarnParams refuses; a grid-only fit returns
    # a grid point
    monkeypatch.setattr(earnings, "_GOLDEN_STEPS", golden_steps)
    samples = [(float(x), 3.0 * float(x)) for x in np.linspace(0.0, 1.0, 50)]
    path = tmp_path / "samples.txt"
    path.write_text("".join(f"{x!r},{score!r}\n" for x, score in samples))
    assert main(["fit-earnings", "--family", "pow", "--samples", str(path)]) == 0
    fields = dict(item.split("=") for item in capsys.readouterr().out.split())
    printed = EarnParams(EarnFamily(fields["family"]), float(fields["alpha"]),
                         float(fields["beta"]))
    assert printed == fit_params(samples, EarnFamily.POW).params


_FIVE_SAMPLES = "".join(f"0.{i},{i}.5\n" for i in range(1, 6))


@pytest.mark.parametrize("text, message", [
    (None, "No such file"),
    ("0.1,1.0\n0.2\n", "line 2: expected 'x,score', got '0.2'"),
    ("0.1,1.0\n0.2,2.0\n", "need at least 5"),
    ("".join(f"0.{i},3.0\n" for i in range(1, 7)), "scores are constant"),
    (_FIVE_SAMPLES + "nan,1.0\n", "sample inputs must lie in [0, 1], got nan"),
    (_FIVE_SAMPLES + "0.6,nan\n", "sample scores must be finite, got nan"),
    (_FIVE_SAMPLES + "0.6,inf\n", "sample scores must be finite, got inf"),
], ids=["missing", "not-a-pair", "too-few", "constant", "nan-input", "nan-score",
        "inf-score"])
def test_bad_samples_file_is_an_argparse_error(text, message, tmp_path, capsys):
    path = tmp_path / "samples.txt"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["fit-earnings", "--family", "pow", "--samples", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--samples {path}: " in err
    assert message in err


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "scenario.conf"
    cfg.write_text(
        "# comment line\n"
        "seed = 42\n"
        "num_users = 7\n"
        "tau = 0.8, 1.2\n"
        "weight_omega = 3.25   # config override\n"
        "cell_radius_km = 0.4\n")
    parsed = parse_config_file(str(cfg))
    assert parsed["seed"] == 42
    assert parsed["num_users"] == 7
    assert parsed["tau"] == (0.8, 1.2)
    assert parsed["config_overrides"] == {"weight_omega": 3.25}
    assert parsed["cell_radius_km"] == 0.4


@pytest.mark.parametrize("text, where", [
    ("num_users = 7.5\n", ":1: num_users: expected an integer, got '7.5'"),
    ("seed = 3\ntau = 0.5, abc\n", ":2: tau: expected a number, got 'abc'"),
    ("# speed\n\nweight_omega = fast\n", ":3: weight_omega: expected a number, got 'fast'"),
], ids=["int", "range", "override"])
def test_config_value_errors_name_the_line_and_key(text, where, tmp_path, capsys):
    cfg = tmp_path / "bad.conf"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"--config {cfg}: {cfg}{where}" in capsys.readouterr().err


def test_sweep_reads_its_config_file_once(tmp_path, monkeypatch):
    cfg = tmp_path / "scenario.conf"
    cfg.write_text("num_servers = 2\nweight_omega = 2.0\n")
    calls = []

    def counted(path):
        calls.append(path)
        return parse_config_file(path)

    monkeypatch.setattr(cli, "parse_config_file", counted)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--kind", "omega", "--methods", "random", "--grid", "1.0",
                 "--users", "2", "--seeds", "1", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert calls == [str(cfg)]


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("nonsense = 1\n")
    with pytest.raises(ValueError):
        parse_config_file(str(cfg))


def test_cli_flags_override_config_file(tmp_path):
    cfg = tmp_path / "scenario.conf"
    cfg.write_text("seed = 42\nnum_users = 7\n")

    class Args:
        config = str(cfg)
        seed = 11
        users = None
        servers = None

    spec = build_spec(Args())
    assert spec.seed == 11  # flag wins
    assert spec.num_users == 7  # file value kept


def test_env_seed_overrides_everything(tmp_path, monkeypatch):
    cfg = tmp_path / "scenario.conf"
    cfg.write_text("seed = 42\n")
    monkeypatch.setenv("MECOPT_SEED", "99")

    class Args:
        config = str(cfg)
        seed = 11
        users = None
        servers = None

    assert build_spec(Args()).seed == 99
    monkeypatch.setenv("MECOPT_SEED", "-3")
    with pytest.raises(ValueError, match="^seed must be an integer >= 0, got -3$"):
        build_spec(Args())


@pytest.mark.parametrize("args", [["run", "--users", "2", "--servers", "2"],
                                  _SMALL_SWEEP + ["--seeds", "1", "--out", "s.csv"],
                                  ["oracle-compare", "--instances", "1"]])
def test_non_integer_env_seed_is_an_argparse_error(args, monkeypatch, capsys):
    monkeypatch.setenv("MECOPT_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "MECOPT_SEED must be an integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["run", "--users", "2", "--servers", "2"],
                                  _SMALL_SWEEP + ["--seeds", "1", "--out", "s.csv"],
                                  ["oracle-compare", "--instances", "1"]])
def test_negative_env_seed_is_an_argparse_error(args, monkeypatch, capsys):
    monkeypatch.setenv("MECOPT_SEED", "-3")
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "MECOPT_SEED must be at least 0, got -3" in capsys.readouterr().err


def test_default_grids_cover_documented_ranges():
    from mecopt.harness import SweepKind
    assert DEFAULT_GRIDS[SweepKind.OMEGA][0] == 0.5
    assert DEFAULT_GRIDS[SweepKind.OMEGA][-1] == 5.0
    assert DEFAULT_GRIDS[SweepKind.SMIN][0] == 1280 * 720
    assert DEFAULT_GRIDS[SweepKind.SMIN][-1] == 6400 * 4800
