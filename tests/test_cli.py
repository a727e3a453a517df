"""Command line surface: wire formats, exit codes, campaign determinism."""

import argparse
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from omegalab.cli import (
    CAMPAIGN_CHECKS,
    COMMANDS,
    SAMPLING_CHECKS,
    ConfigError,
    build_parser,
    load_campaign_config,
    main,
    run_campaign,
)

CUBE = "trunc:p=2,vars=2,nil=3"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_omega_subcommand(capsys):
    code, payload, _ = run_json(
        capsys, "omega", "--ring", "zmod:12", "--ideal", "gen:none"
    )
    assert code == 0
    rec = payload["records"][0]
    assert rec["result"] == "omega=3"
    assert rec["witness"] == "(2,2,3)"
    assert rec["status"] == "pass"
    assert rec["millis"] == 0  # json output is normalized
    assert payload["summary"]["pass"] == 1
    assert payload["config"]["ring"] == "zmod:12"


def test_omega_proper_ideal(capsys):
    code, payload, _ = run_json(
        capsys, "omega", "--ring", "zmod:12", "--ideal", "gen:4"
    )
    assert code == 0
    assert payload["records"][0]["result"] == "omega=2"


def test_strong_omega_subcommand(capsys):
    code, payload, _ = run_json(
        capsys, "strong-omega", "--ring", "zmod:4", "--ideal", "gen:none"
    )
    assert code == 0
    rec = payload["records"][0]
    assert rec["result"] == "strong-omega=2"
    assert rec["witness"] == "((2),(2))"


def test_conjecture1_subcommand(capsys):
    code, payload, _ = run_json(capsys, "conjecture1", "--ring", "zmod:12")
    assert code == 0
    assert payload["records"][0]["result"] == "rows=5 agree=5 capped=0"


@pytest.mark.parametrize(
    "argv, result, witness",
    [
        (("omega", "--ring", "zmod:300"), "omega=5", "(2,2,3,5,5)"),
        (("omega", "--ring", "prod:zmod:16,zmod:17"), "omega=5", None),
        (
            ("conjecture1", "--ring", "prod:zmod:16,zmod:17"),
            "rows=9 agree=9 capped=0",
            None,
        ),
    ],
    ids=["omega-zmod:300", "omega-prod", "conjecture1-prod"],
)
def test_element_scans_above_table_limit(capsys, argv, result, witness):
    # rings of order 300 and 272: the element scan walks one element per
    # principal ideal, so these finish at once instead of running for
    # minutes over every element
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0
    rec = payload["records"][0]
    assert rec["result"] == result
    if witness is not None:
        assert rec["witness"] == witness


def test_gaussian_counterexample_exit_code(capsys):
    code, payload, _ = run_json(capsys, "gaussian", "--ring", CUBE)
    assert code == 2
    rec = payload["records"][0]
    assert rec["status"] == "counterexample"
    assert rec["witness"] == "f=2+4x; g=2+4x"
    assert payload["summary"]["counterexamples"] == [0]


def test_armendariz_pass(capsys):
    code, payload, _ = run_json(
        capsys, "armendariz", "--ring", "trunc:p=2,vars=2,nil=2"
    )
    assert code == 0
    assert payload["records"][0]["status"] == "pass"


def test_dm_subcommand(capsys):
    code, payload, _ = run_json(capsys, "dm", "--ring", "zmod:4")
    assert code == 0
    rec = payload["records"][0]
    assert "max=1" in rec["result"]
    assert "bound=ok" in rec["result"]
    assert "hist=1:256" in rec["result"]


def test_bezout_subcommand(capsys):
    code, payload, _ = run_json(
        capsys, "bezout", "--ring", "zmod:4", "--poly", "2+2x"
    )
    assert code == 0
    rec = payload["records"][0]
    assert rec["result"].startswith("b=2 ")
    assert "g'=1+x" in rec["witness"]
    assert "s=(1,0)" in rec["witness"]


def test_certify_subcommand(capsys):
    code, payload, _ = run_json(
        capsys, "certify", "--ring", "zmod:30", "--ideal", "gen:6",
        "--poly", "2", "--poly", "3x"
    )
    assert code == 0
    rec = payload["records"][0]
    assert rec["result"] == "exponents=(1) chain=ok final=ok radical=yes"


def test_certify_needs_two_factors(capsys):
    code, _, err = run_cli(
        capsys, "certify", "--ring", "zmod:30", "--ideal", "gen:6",
        "--poly", "2"
    )
    assert code == 1
    assert "two" in err


def test_poly_omega_subcommand(capsys):
    code, payload, _ = run_json(
        capsys, "poly-omega", "--ring", "zmod:4", "--ideal", "gen:none"
    )
    assert code == 0
    rec = payload["records"][0]
    assert "omega=2" in rec["result"]
    assert "witness=valid" in rec["result"]
    assert "violation=none" in rec["result"]


def test_int_subcommand(capsys):
    code, payload, _ = run_json(capsys, "int", "--ring", "zmod:12")
    assert code == 0
    rec = payload["records"][0]
    assert "omega=3" in rec["result"]
    assert "factors=(2,2,3)" in rec["result"]
    assert "witness=valid" in rec["result"]


# the full int records. zmod:12 checks none of its 17,550 multisets: every
# box coefficient has |c| <= 2, so no product is divisible by 3. That is the
# known vacuous PASS of ROADMAP items 2 and 4; it stays until a benchmark
# re-pin changes how such a record reads.
INT_RECORDS = {
    "zmod:12": (
        "exhaustive",
        "omega=3 factors=(2,2,3) witness=valid violation=none checked=0 drawn=17550",
    ),
    "zmod:8": (
        "exhaustive",
        "omega=3 factors=(2,2,2) witness=valid violation=none checked=2250 drawn=17550",
    ),
    "zmod:300": (
        "sampled:1000",
        "omega=5 factors=(2,2,3,5,5) witness=valid violation=none checked=0 drawn=1000",
    ),
}


@pytest.mark.parametrize("spec", list(INT_RECORDS))
def test_int_record_bytes(capsys, spec):
    code, payload, _ = run_json(capsys, "int", "--ring", spec)
    assert code == 0
    rec = payload["records"][0]
    assert (rec["mode"], rec["result"]) == INT_RECORDS[spec]
    assert rec["status"] == "pass" and rec["witness"] is None


def test_int_requires_zmod(capsys):
    code, _, err = run_cli(capsys, "int", "--ring", "prod:zmod:2,zmod:3")
    assert code == 1
    assert "zmod" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "omega", "--ring", "zmod:bogus")
    assert code == 1
    assert "parse error" in err


def test_unknown_subcommand_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "omega", "--ring", "zmod:12", "--ideal", "gen:none",
        "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ring,ideal,check,mode,status,result,witness,millis"
    assert lines[1] == 'zmod:12,gen:none,omega,exact,pass,omega=3,"(2,2,3)",0'


def test_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "omega", "--ring", "zmod:12", "--ideal", "gen:none",
        "--format", "text"
    )
    assert code == 0
    assert "omega=3" in out
    assert "summary: records=1 pass=1" in out


def test_out_file_written_atomically(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "omega", "--ring", "zmod:6", "--ideal", "gen:none",
        "--out", str(target)
    )
    assert code == 0
    assert out == ""  # redirected
    payload = json.loads(target.read_text())
    assert payload["records"][0]["result"] == "omega=2"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "report.json"]
    assert leftovers == []


# ---------------------------------------------------------------------------
# campaign config validation


def _write_config(tmp_path, **overrides):
    config = {
        "rings": ["zmod:6"],
        "checks": ["omega-table"],
        "bounds": {"max_deg": 1},
        "seed": 7,
        "jobs": 1,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_config_roundtrip(tmp_path):
    path = _write_config(tmp_path)
    config = load_campaign_config(path)
    assert config["rings"] == ["zmod:6"]
    assert config["seed"] == 7
    assert config["bounds"].max_deg == 1


def test_config_rejects_unknown_key(tmp_path):
    path = _write_config(tmp_path, extras=True)
    with pytest.raises(ValueError, match="unknown config keys"):
        load_campaign_config(path)


def test_config_rejects_unknown_check(tmp_path):
    path = _write_config(tmp_path, checks=["omega-table", "frobnicate"])
    with pytest.raises(ValueError, match="unknown checks"):
        load_campaign_config(path)


def test_config_rejects_unknown_bounds_key(tmp_path):
    path = _write_config(tmp_path, bounds={"max_degree": 1})
    with pytest.raises(ValueError, match="unknown bounds keys"):
        load_campaign_config(path)


def test_config_requires_seed_for_sampling_checks(tmp_path):
    config = {
        "rings": ["zmod:6"],
        "checks": ["gaussian"],
        "jobs": 1,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match="seed"):
        load_campaign_config(str(path))


def test_config_seed_optional_for_exact_checks(tmp_path):
    config = {"rings": ["zmod:6"], "checks": ["omega-table"]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    loaded = load_campaign_config(str(path))
    assert loaded["seed"] == 0


def test_config_rejects_bad_jobs(tmp_path):
    path = _write_config(tmp_path, jobs=0)
    with pytest.raises(ValueError, match="jobs"):
        load_campaign_config(path)


def test_out_of_range_bound_argument_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "gaussian", "--ring", "zmod:12", "--max-deg", "-1"
    )
    assert code == 1
    assert out == ""
    assert "max_deg must be >= 0" in err


def test_config_rejects_out_of_range_bound(tmp_path):
    path = _write_config(tmp_path, bounds={"sample": 0})
    with pytest.raises(ConfigError, match="sample must be >= 1"):
        load_campaign_config(path)


def test_campaign_jobs_zero_exit_code(tmp_path, capsys):
    path = _write_config(tmp_path)
    code, out, err = run_cli(capsys, "campaign", "--config", path, "--jobs", "0")
    assert code == 1
    assert out == ""
    assert "--jobs must be >= 1" in err


def test_run_campaign_rejects_jobs_below_one(tmp_path):
    config = load_campaign_config(_write_config(tmp_path))
    with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
        run_campaign(config, 0)
    with pytest.raises(ValueError, match="jobs must be >= 1, got -2"):
        run_campaign(dict(config, jobs=-2))


def test_campaign_config_error_exit_code(tmp_path, capsys):
    path = _write_config(tmp_path, extras=True)
    code, _, err = run_cli(capsys, "campaign", "--config", path)
    assert code == 1
    assert "config error" in err


_VALID = {"rings": ["zmod:6"], "checks": ["omega-table"], "seed": 7}
_RINGS = "config needs 'rings': a nonempty list of ring specs"
_CHECKS = "config needs 'checks': a nonempty list of check names"


def _without(key):
    return json.dumps({k: v for k, v in _VALID.items() if k != key})


def _with(**overrides):
    return json.dumps(dict(_VALID, **overrides))


@pytest.mark.parametrize("text, message", [
    ("{", "config is not valid JSON"),
    ("[]", "config must be a JSON object"),
    (_without("rings"), _RINGS),
    (_with(rings=[]), _RINGS),
    (_with(rings=[6]), _RINGS),
    (_without("checks"), _CHECKS),
    (_with(checks=[]), _CHECKS),
    (_with(checks=[None]), _CHECKS),
    (_with(bounds=[1]), "'bounds' must be an object"),
    (_with(bounds={"max_deg": 1.5}), "bounds.max_deg must be an integer"),
    (_with(bounds={"cap": True}), "bounds.cap must be an integer"),
    (_with(seed="7"), "'seed' must be an integer"),
    (_with(seed=False), "'seed' must be an integer"),
    (_with(output=5), "'output' must be a path string"),
], ids=[
    "bad-json", "not-object", "no-rings", "empty-rings", "int-ring",
    "no-checks", "empty-checks", "null-check", "bounds-list", "float-bound",
    "bool-bound", "string-seed", "bool-seed", "int-output",
])
def test_config_rejects_malformed_fields(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_campaign_config(str(path))
    code, out, err = run_cli(capsys, "campaign", "--config", str(path))
    assert (code, out) == (1, "")
    assert "config error" in err and message in err


# ---------------------------------------------------------------------------
# campaign runs


CAMPAIGN = {
    "rings": ["zmod:6", "zmod:4"],
    "checks": ["omega-table", "conjecture1", "gaussian", "armendariz",
               "dm-bound", "poly-omega", "bezout", "certify-radical",
               "int-conjecture"],
    "bounds": {"max_deg": 1, "sample": 200},
    "seed": 42,
    "jobs": 1,
}


def _campaign_path(tmp_path, **overrides):
    config = dict(CAMPAIGN)
    config.update(overrides)
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_campaign_runs_green(tmp_path, capsys):
    path = _campaign_path(tmp_path)
    code, payload, _ = run_json(capsys, "campaign", "--config", path)
    assert code == 0
    assert payload["summary"]["errors"] == 0
    assert payload["summary"]["counterexamples"] == []
    # records are sorted by (ring, ideal, check)
    keys = [(r["ring"], r["ideal"], r["check"]) for r in payload["records"]]
    assert keys == sorted(keys)
    # poly-omega fans out per proper ideal
    z6_po = [r for r in payload["records"]
             if r["ring"] == "zmod:6" and r["check"] == "poly-omega"]
    assert [r["ideal"] for r in z6_po] == ["gen:2", "gen:3", "gen:none"]


def test_campaign_jobs_determinism(tmp_path, capsys):
    path = _campaign_path(tmp_path)
    out1 = tmp_path / "j1.json"
    out8 = tmp_path / "j8.json"
    assert run_cli(capsys, "campaign", "--config", path, "--jobs", "1",
                   "--out", str(out1))[0] == 0
    assert run_cli(capsys, "campaign", "--config", path, "--jobs", "8",
                   "--out", str(out8))[0] == 0
    assert out1.read_bytes() == out8.read_bytes()


def test_campaign_isolates_inapplicable_check(tmp_path, capsys):
    path = _campaign_path(
        tmp_path, rings=["prod:zmod:2,zmod:3"], checks=["int-conjecture"]
    )
    code, payload, _ = run_json(capsys, "campaign", "--config", path)
    assert code == 1
    rec = payload["records"][0]
    assert rec["status"] == "error"
    assert "zmod" in rec["result"]


def test_campaign_isolates_unparsable_ring(tmp_path, capsys):
    checks = ["omega-table", "dm-bound", "int-conjecture"]
    path = _campaign_path(tmp_path, rings=["zmod:1", "zmod:6"], checks=checks)
    code, payload, _ = run_json(capsys, "campaign", "--config", path)
    assert code == 1
    bad = [r for r in payload["records"] if r["ring"] == "zmod:1"]
    assert [(r["ideal"], r["check"], r["status"]) for r in bad] == [
        ("-", check, "error") for check in sorted(checks)
    ]
    assert all("RingConstructionError" in r["result"] for r in bad)
    alone = _campaign_path(tmp_path, rings=["zmod:6"], checks=checks)
    assert run_json(capsys, "campaign", "--config", alone)[1]["records"] == [
        r for r in payload["records"] if r["ring"] == "zmod:6"
    ]


def test_campaign_counterexample_exit(tmp_path, capsys):
    path = _campaign_path(tmp_path, rings=[CUBE], checks=["gaussian"])
    code, payload, _ = run_json(capsys, "campaign", "--config", path)
    assert code == 2
    assert payload["summary"]["counterexamples"] == [0]


def test_campaign_csv_format(tmp_path, capsys):
    path = _campaign_path(tmp_path, checks=["omega-table"])
    code, out, _ = run_cli(capsys, "campaign", "--config", path,
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("ring,ideal,check")
    assert len(lines) == 3  # header + one record per ring


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "omegalab" in capsys.readouterr().out


def test_campaign_isolates_lattice_overflow(tmp_path, capsys):
    # listing poly-omega's ideals overflows the lattice cap on zmod:12 only
    path = _campaign_path(
        tmp_path, rings=["zmod:12", "zmod:2"], checks=["poly-omega"],
        bounds={"lattice_cap": 2}, seed=1,
    )
    code, payload, _ = run_json(capsys, "campaign", "--config", path)
    assert code == 1
    errors = [r for r in payload["records"] if r["status"] == "error"]
    assert [(r["ring"], r["ideal"], r["check"]) for r in errors] == [
        ("zmod:12", "-", "poly-omega")
    ]
    assert "LatticeOverflowError" in errors[0]["result"]
    assert [r["ideal"] for r in payload["records"] if r["ring"] == "zmod:2"] == [
        "gen:none"
    ]


def test_check_registry_names():
    assert SAMPLING_CHECKS == {
        "gaussian", "armendariz", "dm-bound", "poly-omega", "bezout",
        "int-conjecture",
    }
    assert CAMPAIGN_CHECKS == (
        "omega-table", "conjecture1", "gaussian", "armendariz", "dm-bound",
        "poly-omega", "bezout", "certify-radical", "int-conjecture",
    )


def test_every_subcommand_has_a_runner():
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(subparsers.choices) - {"campaign"} == set(COMMANDS)


ECHOES = {
    ("omega", "--ring", "zmod:4"): {
        "ring": "zmod:4", "ideal": "gen:none", "cap": 6,
    },
    ("strong-omega", "--ring", "zmod:4"): {
        "ring": "zmod:4", "ideal": "gen:none", "cap": 6, "lattice_cap": 4096,
    },
    ("conjecture1", "--ring", "zmod:4"): {
        "ring": "zmod:4", "cap": 6, "lattice_cap": 4096,
    },
    ("gaussian", "--ring", "zmod:4"): {
        "ring": "zmod:4", "vars": 1, "max_deg": 1, "sample": 10000, "seed": 0,
    },
    ("armendariz", "--ring", "zmod:4"): {
        "ring": "zmod:4", "vars": 1, "max_deg": 1, "sample": 10000, "seed": 0,
    },
    ("dm", "--ring", "zmod:4"): {
        "ring": "zmod:4", "vars": 1, "max_deg": 1, "cap": 6, "sample": 10000,
        "seed": 0,
    },
    ("bezout", "--ring", "zmod:4", "--poly", "2+2x"): {
        "ring": "zmod:4", "vars": 1, "poly": "2+2x",
    },
    ("certify", "--ring", "zmod:4", "--poly", "2", "--poly", "2x"): {
        "ring": "zmod:4", "ideal": "gen:none", "vars": 1, "cap": 8,
        "poly": ["2", "2x"],
    },
    ("poly-omega", "--ring", "zmod:4"): {
        "ring": "zmod:4", "ideal": "gen:none", "vars": 1, "max_deg": 1,
        "cap": 6, "sample": 10000, "seed": 0,
    },
    ("int", "--ring", "zmod:4"): {
        "ring": "zmod:4", "max_deg": 1, "height": 2, "sample": 1000, "seed": 0,
    },
}


@pytest.mark.parametrize("argv", list(ECHOES), ids=[a[0] for a in ECHOES])
def test_subcommand_flags_and_defaults(capsys, argv):
    # only the required flags: the echo shows every flag and its default
    code, payload, err = run_json(capsys, *argv)
    assert code == 0, err
    assert payload["config"] == {"command": argv[0], **ECHOES[argv]}


@pytest.mark.parametrize("argv", [
    ("omega", "--ring", "zmod:4", "--sample", "5"),
    ("int", "--ring", "zmod:4", "--cap", "3"),
    ("bezout", "--ring", "zmod:4", "--poly", "x", "--seed", "1"),
])
def test_subcommand_rejects_foreign_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_report_write_failure_exits_cleanly(tmp_path, capsys):
    missing = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys, "omega", "--ring", "zmod:12", "--out", str(missing)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("omegalab: error: cannot write report:")
    # a target that cannot be replaced leaves no temporary file behind
    target = tmp_path / "taken"
    target.mkdir()
    code, _, err = run_cli(
        capsys, "omega", "--ring", "zmod:12", "--out", str(target)
    )
    assert code == 1
    assert "cannot write report" in err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_campaign_report_write_failure_exits_cleanly(tmp_path, capsys):
    path = _write_config(tmp_path)
    missing = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys, "campaign", "--config", path, "--out", str(missing)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("omegalab: error: cannot write report:")


def test_specs_accept_only_ascii_digits(capsys):
    # str.isdigit() accepts a superscript two, int() does not
    for argv in (
        ("omega", "--ring", "zmod:1²"),
        ("omega", "--ring", "zmod:12", "--ideal", "gen:²"),
        ("bezout", "--ring", "zmod:4", "--poly", "²x"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("omegalab: parse error:"), (argv, err)


def test_module_entry_point_version():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "omegalab", "--version"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("omegalab ")


def test_version_has_one_source():
    # the installed metadata reads omegalab.__version__, which --version
    # prints, so a release bumps one string
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "omegalab.__version__"
    }


def test_every_export_resolves():
    # a name left in __all__ after its definition is deleted would only
    # fail at ``from omegalab.x import *``
    import importlib
    import pkgutil

    import omegalab

    modules = [omegalab] + [
        importlib.import_module(f"omegalab.{info.name}")
        for info in pkgutil.iter_modules(omegalab.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(title: str) -> list[tuple[str, str]]:
    """(language, body) of each fenced block in the README section."""
    section = README.read_text(encoding="utf-8").split(f"### {title}\n", 1)[1]
    section = section.split("\n## ", 1)[0].split("\n### ", 1)[0]
    return re.findall(r"```(\w*)\n(.*?)```", section, re.S)


def mask_millis(text: str) -> str:
    return re.sub(r"\(\d+ms\)", "(Nms)", text)


def test_readme_examples_match(capsys):
    # every `$ omegalab ...` line of the Examples section, run through
    # main: its output is the lines after it, or the next block when none
    # follow (the json example), and `$ echo $?` shows the exit code
    blocks = readme_blocks("Examples")
    commands = 0
    for k, (lang, body) in enumerate(blocks):
        if lang != "sh":
            continue
        for chunk in re.split(r"^\$ ", body, flags=re.M)[1:]:
            line, _, expected = chunk.partition("\n")
            if line == "echo $?":
                assert str(code) == expected.strip(), previous
                continue
            argv = shlex.split(line)
            assert argv[0] == "omegalab", line
            code, out, _ = run_cli(capsys, *argv[1:])
            if expected:  # a blank line ends one command's output
                expected = expected.rstrip("\n") + "\n"
            else:
                expected = blocks[k + 1][1]
            assert mask_millis(out) == mask_millis(expected), line
            previous = line
            commands += 1
    assert commands == 5


def test_readme_campaign_csv_matches(capsys, tmp_path, monkeypatch):
    # the Campaigns section's config, run by its command line, writes the
    # csv report shown there
    blocks = readme_blocks("Campaigns")
    (command,) = [body for lang, body in blocks if lang == "sh"]
    config = next(body for lang, body in blocks if lang == "json")
    report = next(body for lang, body in blocks if body.startswith("ring,"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "campaign.json").write_text(config, encoding="utf-8")
    argv = shlex.split(command)
    assert argv[0] == "omegalab"
    assert run_cli(capsys, *argv[1:])[0] == 0
    assert (tmp_path / "report.csv").read_text(encoding="utf-8") == report


def test_readme_library_use_runs():
    # the documented imports and calls, run as written
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
