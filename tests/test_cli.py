import json
import os
import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sectoral import cli, presets, topology
from sectoral.cli import (_SAMPLES, COMMANDS, KEYS, build_parser,
                          canonical_json, load_config, main)
from sectoral.errors import ConfigInvalid
from sectoral.symbol1d import sobolev_op_norm


def _run(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SECTORAL_OUT", str(tmp_path))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _latest_json(tmp_path, prefix):
    names = sorted(p for p in os.listdir(tmp_path)
                   if p.startswith(prefix) and p.endswith(".json"))
    assert names, f"no {prefix}*.json written in {tmp_path}"
    with open(tmp_path / names[-1]) as fh:
        return json.load(fh)


def test_list_presets_output(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ":" in ln]
    assert len(lines) >= 8
    assert any(ln.strip().startswith("dtheta:") for ln in out.splitlines())
    assert any(ln.strip().startswith("monopole:") for ln in out.splitlines())
    # only what a subcommand accepts is listed, each under the registry
    # that subcommand looks it up in
    listed = {}
    for ln in out.splitlines():
        if ln.startswith("["):
            group = listed.setdefault(ln.strip("[]"), [])
        else:
            group.append(ln.split(":")[0].strip())
    assert list(listed) == ["operators", "perturbations", "pairs", "paths",
                            "bundles"]
    for title, names in listed.items():
        assert names == sorted(presets.REGISTRIES[title])
        for name in names:
            assert callable(presets.lookup(title, "preset", name))
    for name in listed["operators"]:
        assert presets.get_operator(name, 2).K == 2


@pytest.mark.parametrize("command, key", [
    *[(c, "preset") for c in ("project", "perturb", "resolvent-decay",
                              "parametrix", "wodzicki", "obstruction")],
    ("perturb", "perturbation"), ("compose-gap", "pair"),
    ("spectral-flow", "path")])
def test_unknown_name_exits_1(command, key, tmp_path, monkeypatch, capsys):
    code, _, err = _run([command, "--" + key, "nope"], tmp_path, monkeypatch,
                        capsys)
    assert code == 1
    assert f"ConfigInvalid: invalid configuration: {key}:" in err
    assert not list(tmp_path.glob("*.json"))


def test_project_writes_report(tmp_path, monkeypatch, capsys):
    code, out, _ = _run(["project", "--preset", "dtheta", "--K", "16"],
                        tmp_path, monkeypatch, capsys)
    assert code == 0
    assert "pass" in out
    rec = _latest_json(tmp_path, "project-dtheta-")
    assert rec["pass"] is True
    assert rec["rank_estimate"] == 16
    assert "timestamp" in rec
    assert rec["contour"]["R"] == 0.5


def test_project_include_matrix(tmp_path, monkeypatch, capsys):
    code, _, _ = _run(["project", "--K", "4", "--include-matrix", "yes"],
                      tmp_path, monkeypatch, capsys)
    assert code == 0
    rec = _latest_json(tmp_path, "project-dtheta-")
    assert len(rec["matrix"]) == len(rec["matrix"][0]) == 9
    code, _, err = _run(["project", "--K", "4", "--include-matrix", "maybe"],
                        tmp_path, monkeypatch, capsys)
    assert code == 1 and "ConfigInvalid" in err and "include_matrix" in err


def test_quadrature_rule_keys_exit_1(tmp_path, monkeypatch, capsys):
    # the rule is fixed in code: only the arc radius is a contour key
    code, _, err = _run(["project", "--K", "4", "--panels-arc", "4"],
                        tmp_path, monkeypatch, capsys)
    assert code == 1 and "ConfigInvalid" in err
    cfg = tmp_path / "rule.ini"
    cfg.write_text("[run]\ngauss_order = 8\n")
    code, _, err = _run(["project", "--config", str(cfg)], tmp_path,
                        monkeypatch, capsys)
    assert code == 1 and "ConfigInvalid" in err and "gauss_order" in err
    assert not list(tmp_path.glob("*.json"))
    code, _, _ = _run(["project", "--K", "4", "--R", "0.25"],
                      tmp_path, monkeypatch, capsys)
    assert code == 0
    contour = _latest_json(tmp_path, "project-dtheta-")["contour"]
    assert contour == {"alpha1": np.pi / 2, "alpha2": -np.pi / 2, "R": 0.25}


def test_obstruction_monopole(tmp_path, monkeypatch, capsys):
    code, _, _ = _run(["obstruction", "--preset", "monopole",
                       "--level", "2"], tmp_path, monkeypatch, capsys)
    assert code == 0
    rec = _latest_json(tmp_path, "obstruction-monopole-")
    assert rec["chern_number"] == 1
    assert rec["obstructed"] is True


def test_spectral_flow_presets(tmp_path, monkeypatch, capsys):
    code, _, _ = _run(["spectral-flow", "--path", "crossing"],
                      tmp_path, monkeypatch, capsys)
    assert code == 0
    assert _latest_json(tmp_path, "spectral_flow-crossing-")["flow"] == 1
    code, _, _ = _run(["spectral-flow", "--path", "loop"],
                      tmp_path, monkeypatch, capsys)
    assert code == 0
    assert _latest_json(tmp_path, "spectral_flow-loop-")["flow"] == 0


@pytest.mark.parametrize("argv, registry, name, prefix, key", [
    (["spectral-flow", "--path", "crossing"], presets.PATH_PRESETS,
     "crossing", "spectral_flow-crossing-", "expected_flow"),
    (["obstruction", "--preset", "antimonopole", "--level", "2"],
     topology.BUNDLE_PRESETS, "antimonopole",
     "obstruction-antimonopole-", "expected_chern_number")])
def test_topology_pass_flag_compares_with_the_expected_value(
        argv, registry, name, prefix, key, tmp_path, monkeypatch, capsys):
    # the record passes when the computed flow or Chern number is the
    # preset's, and fails (exit 2) when it is not
    code, out, _ = _run(argv, tmp_path, monkeypatch, capsys)
    rec = _latest_json(tmp_path, prefix)
    assert code == 0 and ": pass ->" in out
    assert rec["pass"] is True and rec[key] == registry[name][2]
    factory, desc, expected = registry[name]
    monkeypatch.setitem(registry, name, (factory, desc, expected + 1))
    code, out, _ = _run(argv, tmp_path, monkeypatch, capsys)
    rec = _latest_json(tmp_path, prefix)
    assert code == 2 and ": FAIL ->" in out
    assert rec["pass"] is False and rec[key] == expected + 1


def test_compose_gap_order_zero_pair(tmp_path, monkeypatch, capsys):
    code, out, _ = _run(["compose-gap", "--pair", "order_zero_pair",
                         "--K", "40", "--lambda-max", "20"],
                        tmp_path, monkeypatch, capsys)
    assert code == 0 and "pass" in out
    rec = _latest_json(tmp_path, "composition_gap-order_zero_pair-")
    assert abs(rec["fitted_slope"] + 1.0) <= 0.2
    assert rec["r_squared"] >= 0.98


@pytest.mark.parametrize("argv, kind, tolerance", [
    (["resolvent-decay", "--K", "64", "--lambda-min", "1.6",
      "--lambda-max", "16"], "resolvent_decay-dtheta_shift-", 0.1),
    (["parametrix", "--K", "64", "--rho", "2", "--lambda-min", "8",
      "--lambda-max", "32"], "parametrix_gap-variable_coeff_shift-", 0.15),
])
def test_decay_runs_meet_the_criterion(argv, kind, tolerance, tmp_path,
                                       monkeypatch, capsys):
    # c3 and c4 at a small K: slope -1 within the criterion's tolerance
    code, out, _ = _run(argv, tmp_path, monkeypatch, capsys)
    assert code == 0 and "pass" in out
    rec = _latest_json(tmp_path, kind)
    assert rec["pass"] is True and rec["K"] == 64
    assert rec["expected_slope"] == -1.0
    assert abs(rec["fitted_slope"] + 1.0) <= tolerance
    assert rec["r_squared"] >= 0.98
    # the samples go to the CSV of the same base name
    csv, record = sorted(os.listdir(tmp_path))
    assert csv == record[:-len(".json")] + ".csv"


def test_reports_of_one_second_are_all_kept(tmp_path, monkeypatch, capsys):
    # every run in the same second gets new files, named in run order
    monkeypatch.setattr(cli, "time", SimpleNamespace(
        gmtime=lambda: None, strftime=lambda fmt, t: "20250101T000000"))
    for K in ("4", "6", "8"):
        code, _, _ = _run(["project", "--preset", "dtheta", "--K", K],
                          tmp_path, monkeypatch, capsys)
        assert code == 0
    names = sorted(os.listdir(tmp_path))
    assert names == [f"project-dtheta-20250101T000000-{n:04d}.json"
                     for n in range(3)]
    Ks = []
    for name in names:
        with open(tmp_path / name) as fh:
            Ks.append(json.load(fh)["K"])
    assert Ks == [4, 6, 8]
    assert _latest_json(tmp_path, "project-dtheta-")["K"] == 8


def test_parser_is_built_once_and_keeps_no_option(tmp_path, monkeypatch,
                                                  capsys):
    # main parses with the one parser of the process; an option given to
    # one call is not a default of the next
    assert build_parser() is build_parser()
    for argv in (["project", "--K", "8"], ["project"]):
        code, _, _ = _run(argv, tmp_path, monkeypatch, capsys)
        assert code == 0
    Ks = []
    for name in sorted(os.listdir(tmp_path)):
        with open(tmp_path / name) as fh:
            Ks.append(json.load(fh)["K"])
    assert Ks == [8, 16]


def test_wodzicki_pass_and_deliberate_fail(tmp_path, monkeypatch, capsys):
    code, out, _ = _run(["wodzicki", "--preset", "dtheta_shift", "--K", "8"],
                        tmp_path, monkeypatch, capsys)
    assert code == 0
    rec = _latest_json(tmp_path, "wodzicki-dtheta_shift-")
    assert rec["residual"] <= 1e-6
    # pairing the power branches across the same cut breaks the identity:
    # the residual is macroscopic and the run exits 2
    code, out, _ = _run(["wodzicki", "--preset", "dtheta_shift", "--K", "8",
                         "--alpha2", "4.71238898038469"],
                        tmp_path, monkeypatch, capsys)
    assert code == 2
    assert "FAIL" in out
    # with the cuts exchanged the sector is the left half-plane: the
    # projection is taken over it and the identity holds again
    code, out, _ = _run(["wodzicki", "--alpha1", "4.71238898038469",
                         "--alpha2", "1.5707963267948966"],
                        tmp_path, monkeypatch, capsys)
    assert code == 0
    rec = _latest_json(tmp_path, "wodzicki-dtheta_shift-")
    assert rec["residual"] <= 1e-6
    assert rec["contour"]["alpha1"] == rec["alpha1"] == 4.71238898038469
    assert rec["contour"]["alpha2"] == rec["alpha2"] == 1.5707963267948966


def test_perturb_measures_the_lower_part_at_the_operator_order(
        tmp_path, monkeypatch, capsys):
    # the lower part of a perturbation of an order-2 operator is measured
    # as an operator of order 1, ||lower||_{1,0} (at R = 5, where P has
    # rank 62 of 65)
    code, _, _ = _run(["perturb", "--preset", "variable_coeff_m2", "--K",
                       "32", "--R", "5"], tmp_path, monkeypatch, capsys)
    assert code == 0
    rec = _latest_json(tmp_path, "perturbation-variable_coeff_m2-")
    lower = presets.perturbation_cos_theta_lower(32).lower
    want = sobolev_op_norm(lower, 1.0, 0.0, K=32)
    assert rec["parameters"]["seminorm_unit"] == want
    assert want == pytest.approx(0.74505, abs=5e-6)
    assert abs(rec["fitted_slope"] - 1.0) <= 0.1
    assert rec["r_squared"] >= 0.98


def test_perturb_refuses_a_projection_of_full_rank(tmp_path, monkeypatch,
                                                  capsys):
    # at the default R = 0.5 every eigenvalue of variable_coeff_m2 lies in
    # the sector: P = I at every epsilon, and the fit would pass on zeros
    code, _, err = _run(["perturb", "--preset", "variable_coeff_m2"],
                        tmp_path, monkeypatch, capsys)
    assert code == 1
    assert "rank 65 of n = 65" in err
    assert not list(tmp_path.glob("*.json"))


def test_perturb_small_run(tmp_path, monkeypatch, capsys):
    code, _, _ = _run(["perturb", "--preset", "dtheta_shift", "--K", "12",
                       "--n-eps", "5"], tmp_path, monkeypatch, capsys)
    assert code == 0
    rec = _latest_json(tmp_path, "perturbation-dtheta_shift-")
    assert abs(rec["fitted_slope"] - 1.0) <= 0.1
    # CSV companion with the sample columns
    csvs = [p for p in os.listdir(tmp_path)
            if p.startswith("perturbation-") and p.endswith(".csv")]
    assert csvs
    with open(tmp_path / csvs[-1]) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "abscissa,value"
    assert len(lines) == len(rec["samples"]) + 1


@pytest.mark.parametrize("argv", [
    ["perturb", "--preset", "dtheta_shift", "--K", "8", "--n-eps", "5"],
    ["resolvent-decay", "--K", "16", "--lambda-min", "1", "--lambda-max", "4"],
    ["parametrix", "--K", "32", "--rho", "2", "--lambda-min", "4",
     "--lambda-max", "8"],
    ["compose-gap", "--K", "32", "--lambda-min", "4", "--lambda-max", "8"],
])
def test_csv_rows_are_the_record_samples(argv, tmp_path, monkeypatch,
                                         capsys):
    # the files are named by the record's kind and preset, and the CSV
    # holds its samples, whether the run passes (exit 0) or fails (2)
    code, out, _ = _run(argv, tmp_path, monkeypatch, capsys)
    assert code in (0, 2)
    record, = [p for p in os.listdir(tmp_path) if p.endswith(".json")]
    with open(tmp_path / record) as fh:
        rec = json.load(fh)
    assert record.startswith(f"{rec['experiment_kind']}-{rec['preset']}-")
    assert out.startswith(f"{rec['experiment_kind']} [{rec['preset']}]: ")
    with open(tmp_path / (record[:-len(".json")] + ".csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "abscissa,value"
    assert [[float(v) for v in line.split(",")] for line in lines[1:]] \
        == rec["samples"]


def test_config_file_and_cli_override(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\npreset = dtheta\nK = 8\n")
    code, _, _ = _run(["project", "--config", str(cfg), "--K", "12"],
                      tmp_path, monkeypatch, capsys)
    assert code == 0
    rec = _latest_json(tmp_path, "project-dtheta-")
    assert rec["K"] == 12  # CLI flag overrides the config value


def test_config_errors_exit_1(tmp_path, monkeypatch, capsys):
    code, _, err = _run(["project", "--config", str(tmp_path / "none.ini")],
                        tmp_path, monkeypatch, capsys)
    assert code == 1 and "not found" in err
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nwavelength = 3\n")
    code, _, err = _run(["project", "--config", str(bad)],
                        tmp_path, monkeypatch, capsys)
    assert code == 1 and "wavelength" in err
    bad.write_text("[run]\nK = not-an-int\n")
    code, _, err = _run(["project", "--config", str(bad)],
                        tmp_path, monkeypatch, capsys)
    assert code == 1
    code, _, err = _run(["project", "--preset", "no_such_operator"],
                        tmp_path, monkeypatch, capsys)
    assert code == 1
    code, _, err = _run(["project", "--R", "nan"],
                        tmp_path, monkeypatch, capsys)
    assert code == 1 and "InvalidRadii" in err
    code, _, err = _run(["obstruction", "--level", "-1"],
                        tmp_path, monkeypatch, capsys)
    assert code == 1 and "level" in err
    # a continuity fit through fewer than 4 distinct epsilons is refused
    for span in (["--n-eps", "2"], ["--n-eps", "1"], ["--n-eps", "0"],
                 ["--eps-min", "0.01", "--eps-max", "0.01"]):
        code, _, err = _run(["perturb", "--preset", "dtheta_shift", "--K",
                             "8", *span], tmp_path, monkeypatch, capsys)
        assert code == 1 and "InsufficientSpan" in err, span
    # a cutoff radius that is not finite and positive
    for argv in (["compose-gap", "--rho", "-1"], ["compose-gap", "--rho", "0"],
                 ["parametrix", "--K", "128", "--rho", "-2"]):
        code, _, err = _run(argv, tmp_path, monkeypatch, capsys)
        assert code == 1 and "rho" in err, argv
    assert not list(tmp_path.glob("*.json"))


_SMALL_K = ["--K", "8", "--lambda-min", "1", "--lambda-max", "4"]


@pytest.mark.parametrize("argv", [
    ["compose-gap", "--rho", "8"],
    ["compose-gap", "--pair", "multiplier_pair", "--rho", "20"],
    ["compose-gap", "--pair", "order_zero_pair", "--rho", "8"],
    ["parametrix", "--rho", "8"],
    ["parametrix", "--rho", "20"],
])
def test_cutoff_radius_at_least_K_exits_1(argv, tmp_path, monkeypatch,
                                          capsys):
    # psi vanishes on every mode |k| <= K, so the gap would be vacuous;
    # the lambda range lies inside the resolved ceiling (K/2)^m = 4
    code, _, err = _run(argv + _SMALL_K, tmp_path, monkeypatch, capsys)
    assert code == 1 and "|k| <= K = 8" in err
    assert not list(tmp_path.glob("*.json"))


def test_cutoff_radius_below_K_is_accepted(tmp_path, monkeypatch, capsys):
    # psi(8) > 0 at rho = 7: the commuting multipliers' gap is 0
    code, _, _ = _run(["compose-gap", "--pair", "multiplier_pair", "--rho",
                       "7", *_SMALL_K], tmp_path, monkeypatch, capsys)
    assert code == 0
    rec = _latest_json(tmp_path, "composition_gap-multiplier_pair-")
    assert rec["pass"] is True and rec["parameters"]["degenerate_zero"]


@pytest.mark.parametrize("flag, value", [
    ("--eps-min", "-1"), ("--eps-max", "nan"), ("--eps-min", "0"),
    ("--eps-max", "0")])
def test_perturb_names_a_bad_epsilon_bound(flag, value, tmp_path,
                                           monkeypatch, capsys):
    # a bound that is not finite and positive makes the epsilon grid NaN or
    # negative, or (a bound of 0, which numpy's geomspace refuses) reaches
    # the check as it is: the epsilon is named, ahead of the count of
    # distinct ones, and numpy's warning stays off stderr
    code, _, err = _run(["perturb", "--preset", "dtheta_shift", "--K", "8",
                         flag, value], tmp_path, monkeypatch, capsys)
    assert code == 1
    assert "epsilon must be finite and > 0" in err
    assert "RuntimeWarning" not in err and "InsufficientSpan" not in err
    assert not list(tmp_path.glob("*.json"))


def test_config_without_section_header_exits_1(tmp_path, monkeypatch,
                                               capsys):
    # keys must follow a [section] line
    cfg = tmp_path / "flat.ini"
    cfg.write_text("preset = dtheta\nK = 8\n")
    code, _, err = _run(["project", "--config", str(cfg)], tmp_path,
                        monkeypatch, capsys)
    assert code == 1
    assert "ConfigInvalid: invalid configuration: config:" in err
    assert not list(tmp_path.glob("*.json"))


def test_load_config_merges_sections(tmp_path):
    cfg = tmp_path / "m.ini"
    cfg.write_text("[a]\npreset = dtheta\n[b]\nK = 24\n")
    opt = load_config(str(cfg), "project")
    assert opt == {"preset": "dtheta", "K": 24}
    # keys are validated per command: rho belongs to parametrix, not project
    cfg.write_text("[a]\nrho = 2.0\n")
    assert load_config(str(cfg), "parametrix") == {"rho": 2.0}
    with pytest.raises(ConfigInvalid):
        load_config(str(cfg), "project")


def test_load_config_rejects_removed_keys(tmp_path):
    # no preset draws random numbers and every run is serial
    cfg = tmp_path / "old.ini"
    for line in ("threads = 2", "seed = 7"):
        cfg.write_text(f"[run]\n{line}\n")
        with pytest.raises(ConfigInvalid) as exc:
            load_config(str(cfg), "project")
        assert exc.value.key == line.split()[0]


def test_canonical_json_deterministic(tmp_path, monkeypatch, capsys):
    for _ in range(2):
        code, _, _ = _run(["project", "--preset", "dtheta", "--K", "8"],
                          tmp_path, monkeypatch, capsys)
        assert code == 0
    recs = []
    for name in sorted(os.listdir(tmp_path)):
        with open(tmp_path / name) as fh:
            recs.append(json.load(fh))
    assert len(recs) == 2
    assert canonical_json(recs[0]) == canonical_json(recs[1])
    # the timestamps themselves may differ and are excluded on purpose
    assert "timestamp" not in json.loads(canonical_json(recs[0]))


def _flag(key):
    return "--" + key.replace("_", "-")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_lists_exactly_the_command_keys(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one line per key
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    listed = set(re.findall(r"--[A-Za-z][A-Za-z0-9-]*", out))
    keys = COMMANDS[command][1]
    assert listed == {"--help", "--config"} | {_flag(k) for k in keys}
    # each key's line ends with the default its handler reads
    text = " ".join(out.split())
    for key, default in keys.items():
        shown = "computed" if default is None else default
        assert (f"{_flag(key)} {key.upper()} {KEYS[key][1]} "
                f"(default {shown})") in text
    assert text.count("(default ") == len(keys)
    # every other key is a usage error, refused before anything runs
    for key in sorted(set(KEYS) - set(keys)):
        assert main([command, _flag(key), "1"]) == 1
        assert "ConfigInvalid" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("resolvent-decay", "R", "1"), ("spectral-flow", "K", "5"),
    ("compose-gap", "preset", "x")])
def test_ignored_key_exits_1(command, key, value, tmp_path, monkeypatch,
                             capsys):
    code, _, err = _run([command, _flag(key), value], tmp_path, monkeypatch,
                        capsys)
    assert code == 1 and "ConfigInvalid" in err
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\n{key} = {value}\n")
    code, _, err = _run([command, "--config", str(cfg)], tmp_path,
                        monkeypatch, capsys)
    assert code == 1 and "ConfigInvalid" in err and key in err
    assert not list(tmp_path.glob("*.json"))


def test_usage_errors_exit_1(tmp_path, monkeypatch, capsys):
    for argv in (["project", "--bogus", "1"], [], ["no-such-command"],
                 ["project", "--K"], ["project", "--lambda-max", "5"]):
        code, _, err = _run(argv, tmp_path, monkeypatch, capsys)
        assert code == 1 and "ConfigInvalid" in err, argv


@pytest.mark.parametrize("command, flag, value", [
    ("perturb", "--eps-min", "-1e-4"), ("wodzicki", "--alpha1", "-1e-3"),
    ("perturb", "--s", "-5E-1"), ("perturb", "--s", "-.5"),
    ("obstruction", "--level", "-1"),
])
def test_negative_numbers_parse_as_values(command, flag, value):
    # "--flag -1e-4" reads the same value as "--flag=-1e-4"
    key = flag[2:].replace("-", "_")
    spaced = build_parser().parse_args([command, flag, value])
    joined = build_parser().parse_args([command, f"{flag}={value}"])
    assert getattr(spaced, key) == getattr(joined, key) == value


def test_readme_command_lines_parse():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = {build_parser().parse_args(shlex.split(line)[1:]).command
                for line in block.splitlines() if line.startswith("sectoral ")}
    assert commands == set(COMMANDS) | {"list-presets"}


def test_readme_key_table_matches_commands():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    flags = lambda text: re.findall(r"`--([A-Za-z][A-Za-z0-9-]*)`", text)
    groups = {
        "the sample keys": flags(
            re.search(r"The sample keys(.*?)\.\s", readme, re.S).group(1)),
    }
    assert groups == {"the sample keys": [_flag(k)[2:] for k in _SAMPLES]}
    table = {}
    for command, cell in re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", readme,
                                    re.M):
        keys = []
        for item in cell.split(", "):
            keys += groups.get(item, flags(item))
        table[command] = {k.replace("-", "_") for k in keys} | {"out"}
    assert table == {c: set(keys) for c, (_, keys) in COMMANDS.items()}
