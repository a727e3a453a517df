"""Command-line harness: single checks and multi-ring campaigns.

Every invocation produces one report: a config echo, a list of records
(one per check instance), and a summary. Formats: json (stable, sorted
keys, millis zeroed so reruns and different --jobs settings produce
byte-identical bytes), csv (same stability), text (human-oriented, real
timings). Exit code 0 means every record passed or was merely capped,
2 means at least one counterexample record exists, 1 means an error
(bad arguments, bad config, or a failed record).

Campaign configs are JSON objects with keys: rings (list of ring specs),
checks (list of check names), bounds (object), seed (int, required when
any selected check can sample), jobs (int), output (path). Unknown keys
anywhere are rejected. Records are computed grouped by ring (rings may be
processed in parallel; records within one ring stay sequential so shared
caches are race-free) and sorted by (ring, ideal, check) before output.
Per-record sampling seeds are derived from the campaign seed and the
record coordinates, so results do not depend on scheduling.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

from . import __version__ as VERSION
from .absorbing import DEFAULT_CAP, omega, omega_agreement_table, strong_omega
from .content_checks import (
    DEFAULT_BUDGET,
    DEFAULT_SAMPLE,
    armendariz_search,
    bezout_factor,
    certify_content_product,
    certify_pair_sweep,
    dm_exponent_table,
    gaussian_search,
    plan_sweep,
    verify_poly_omega,
)
from .errors import SpecParseError
from .ideals import (
    DEFAULT_LATTICE_CAP,
    Ideal,
    all_ideals,
    ideal_display,
    ideal_from_generators,
    ideal_spec,
    is_radical_ideal,
    parse_ideal_spec,
)
from .integers import conjecture_check_int, omega_int
from .polys import (
    Polynomial,
    display_mono,
    display_poly,
    make_poly,
    monomials_up_to,
    parse_poly,
)
from .rings import DEFAULT_ORDER_CAP, FiniteRing, ZmodRing, parse_ring_spec


@dataclass(frozen=True)
class Bounds:
    max_deg: int = 1
    cap: int = DEFAULT_CAP
    vars: int = 1
    height: int = 2
    sample: int = DEFAULT_SAMPLE
    order_cap: int = DEFAULT_ORDER_CAP
    budget: int = DEFAULT_BUDGET
    lattice_cap: int = DEFAULT_LATTICE_CAP

    def __post_init__(self):
        # a degree bound of 0 means constants and a budget of 0 forces
        # sampling; every other bound below 1 would check nothing
        for key in BOUND_KEYS:
            low = 0 if key in ("max_deg", "budget") else 1
            value = getattr(self, key)
            if value < low:
                raise ValueError(f"{key} must be >= {low}, got {value}")


BOUND_KEYS = tuple(f.name for f in fields(Bounds))


class ConfigError(ValueError):
    """Malformed campaign config."""


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 on usage errors (2 is reserved for
    counterexample outcomes)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# record assembly


def _record(
    ring: str,
    ideal: str,
    check: str,
    mode: str,
    result: str,
    witness: Optional[str],
    status: str,
    millis: int,
) -> dict:
    return {
        "ring": ring,
        "ideal": ideal,
        "check": check,
        "mode": mode,
        "result": result,
        "witness": witness,
        "status": status,
        "millis": millis,
    }


def _elements_tuple(ring: FiniteRing, values) -> str:
    return "(" + ",".join(ring.display(v) for v in values) + ")"


def _ideal_tuple(ideals) -> str:
    return "(" + ",".join(ideal_display(i) for i in ideals) + ")"


def _poly_pair(f: Polynomial, g: Polynomial) -> str:
    return f"f={display_poly(f)}; g={display_poly(g)}"


def _derive_seed(base: int, *parts: str) -> int:
    key = ":".join([str(base), *parts]).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    millis = int((time.perf_counter() - start) * 1000)
    return out, millis


# ---------------------------------------------------------------------------
# check runners
#
# Every runner takes (ring, ideal, bounds, seed, polys) and returns
# (mode, result, witness, status). ideal is the parsed --ideal or the
# campaign's fan-out ideal (None for ring-level checks); polys are the
# --poly literals (empty in campaigns). Runners call the library through
# module globals at call time, so a rebound module attribute is seen.


def _run_omega(ring, ideal, bounds, seed, polys):
    res = omega(ideal, bounds.cap)
    witness = (
        _elements_tuple(ring, res.lower_witness) if res.lower_witness else None
    )
    status = "pass" if res.is_exact else "cap"
    return "exact", f"omega={res.describe()}", witness, status


def _run_omega_table(ring, ideal, bounds, seed, polys):
    """omega of the ideal; on zmod:m also compared with Omega(m)."""
    mode, result, witness, status = _run_omega(ring, ideal, bounds, seed, polys)
    if isinstance(ring, ZmodRing):
        arith = omega_int(ring.modulus).value
        agree = result == f"omega={arith}"  # a capped omega never agrees
        result += f" arithmetic={arith} agree={'yes' if agree else 'NO'}"
        if status == "pass" and not agree:
            status = "counterexample"
    return mode, result, witness, status


def _run_strong_omega(ring, ideal, bounds, seed, polys):
    res = strong_omega(ideal, bounds.cap, bounds.lattice_cap)
    witness = _ideal_tuple(res.lower_witness) if res.lower_witness else None
    status = "pass" if res.is_exact else "cap"
    return "exact", f"strong-omega={res.describe()}", witness, status


def _run_conjecture1(ring, ideal, bounds, seed, polys):
    report = omega_agreement_table(ring, bounds.cap, bounds.lattice_cap)
    agreeing = sum(1 for row in report.rows if row.agree is True)
    result = (
        f"rows={len(report.rows)} agree={agreeing} "
        f"capped={len(report.capped)}"
    )
    if report.counterexamples:
        row = report.counterexamples[0]
        witness = (
            f"ideal={ideal_spec(row.ideal)} omega={row.omega.describe()} "
            f"strong={row.strong.describe()}"
        )
        return "exact", result, witness, "counterexample"
    status = "cap" if report.capped else "pass"
    return "exact", result, None, status


def _search_record(out):
    result = f"found={'yes' if out.found else 'no'} checked={out.checked}"
    witness = _poly_pair(*out.witness) if out.witness else None
    status = "counterexample" if out.found else "pass"
    return out.mode, result, witness, status


def _run_gaussian(ring, ideal, bounds, seed, polys):
    return _search_record(gaussian_search(
        ring, bounds.vars, bounds.max_deg, bounds.budget, bounds.sample, seed
    ))


def _run_armendariz(ring, ideal, bounds, seed, polys):
    return _search_record(armendariz_search(
        ring, bounds.vars, bounds.max_deg, bounds.budget, bounds.sample, seed
    ))


def _run_dm(ring, ideal, bounds, seed, polys):
    table = dm_exponent_table(
        ring,
        bounds.vars,
        bounds.max_deg,
        bounds.cap,
        bounds.budget,
        bounds.sample,
        seed,
    )
    hist = ",".join(f"{n}:{c}" for n, c in table.histogram) or "-"
    bound = {True: "ok", False: "violated", None: "n/a"}[table.bound_holds]
    result = (
        f"max={table.max_exponent} bound={bound} hist={hist} "
        f"cap_exceeded={table.cap_exceeded} checked={table.checked}"
    )
    witness = _poly_pair(*table.witness) if table.witness else None
    if table.bound_holds is False:
        status = "counterexample"
    elif table.cap_exceeded:
        status = "cap"
    else:
        status = "pass"
    return table.mode, result, witness, status


def _run_bezout_poly(ring, ideal, bounds, seed, polys):
    (text,) = polys
    g = parse_poly(ring, bounds.vars, text)
    fact = bezout_factor(g)
    result = (
        f"b={ring.display(fact.b)} d={ring.display(fact.d)} "
        f"terms={len(g.terms)}"
    )
    witness = (
        f"r={_elements_tuple(ring, fact.r)}; s={_elements_tuple(ring, fact.s)}; "
        f"fresh={display_mono(fact.fresh_exponent) or '1'}; "
        f"g'={display_poly(fact.unit_part)}"
    )
    return "exact", result, witness, "pass"


def _run_bezout_sweep(ring, ideal, bounds, seed, polys):
    slots = monomials_up_to(bounds.vars, bounds.max_deg)
    sweep = plan_sweep(
        ring.order ** len(slots), bounds.budget, bounds.sample, seed
    )
    checked = 0
    for (coeffs,) in sweep.tuples(ring.order, len(slots), 1):
        if all(c == ring.zero for c in coeffs):
            continue
        # make_poly drops the zero coefficients
        bezout_factor(make_poly(ring, bounds.vars, dict(zip(slots, coeffs))))
        checked += 1
    return sweep.mode, f"checked={checked} invariants=ok", None, "pass"


def _run_certify_polys(ring, ideal, bounds, seed, polys):
    factors = [parse_poly(ring, bounds.vars, t) for t in polys]
    cert = certify_content_product(ideal, factors, bounds.cap)
    exps = ",".join(str(l) for l in cert.exponents)
    result = (
        f"exponents=({exps}) chain={'ok' if cert.chain_containment else 'FAIL'} "
        f"final={'ok' if cert.final_containment else 'no'} "
        f"radical={'yes' if cert.ideal_radical else 'no'}"
    )
    if not cert.chain_containment:
        status = "counterexample"
    elif cert.ideal_radical and not cert.final_containment:
        status = "counterexample"
    else:
        status = "pass"
    return "exact", result, None, status


def _run_certify_sweep(ring, ideal, bounds, seed, polys):
    sweep = certify_pair_sweep(
        ideal,
        bounds.vars,
        bounds.max_deg,
        max(bounds.cap, bounds.max_deg + 2),
        bounds.budget,
        bounds.sample,
        seed,
    )
    result = (
        f"pairs={sweep.pairs} qualifying={sweep.qualifying} "
        f"max_exponent={sweep.max_exponent} "
        f"exp_bound={'ok' if sweep.exp_bound_holds else 'violated'} "
        f"chain={'ok' if sweep.chain_holds else 'FAIL'} "
        f"final={'ok' if sweep.final_holds else 'FAIL'}"
    )
    ok = sweep.exp_bound_holds and sweep.chain_holds and sweep.final_holds
    witness = _poly_pair(*sweep.witness) if sweep.witness else None
    return sweep.mode, result, witness, "pass" if ok else "counterexample"


def _run_poly_omega(ring, ideal, bounds, seed, polys):
    report = verify_poly_omega(
        ideal,
        bounds.max_deg,
        bounds.vars,
        bounds.cap,
        bounds.budget,
        bounds.sample,
        seed,
    )
    base = report.omega_base
    if base.value is None:
        return report.mode, f"omega={base.describe()}", None, "cap"
    wv = {True: "valid", False: "INVALID", None: "n/a"}[report.lower_witness_valid]
    viol = "found" if report.violation else "none"
    result = (
        f"omega={base.value} witness={wv} violation={viol} "
        f"checked={report.checked}"
    )
    witness = None
    if report.violation:
        witness = "; ".join(display_poly(p) for p in report.violation)
        status = "counterexample"
    elif report.lower_witness_valid is False:
        status = "error"
    else:
        status = "pass"
    return report.mode, result, witness, status


def _run_int(ring, ideal, bounds, seed, polys):
    if not isinstance(ring, ZmodRing):
        raise ValueError("int-conjecture needs a zmod ring spec as its modulus")
    report = conjecture_check_int(
        ring.modulus, bounds.max_deg, bounds.height, bounds.sample, seed,
        bounds.budget,
    )
    factors = "(" + ",".join(str(p) for p in report.omega.factors) + ")"
    viol = "found" if report.violation else "none"
    result = (
        f"omega={report.omega.value} factors={factors} "
        f"witness={'valid' if report.witness_valid else 'INVALID'} "
        f"violation={viol} checked={report.checked} drawn={report.drawn}"
    )
    witness = None
    if report.violation:
        witness = "; ".join(p.display() for p in report.violation)
    if report.violation or not report.witness_valid:
        status = "counterexample"
    else:
        status = "pass"
    return report.mode, result, witness, status


# ---------------------------------------------------------------------------
# the check registry


def _zero_ideal(ring: FiniteRing, bounds: Bounds) -> list[Ideal]:
    return [ideal_from_generators(ring, ())]


def _proper_ideals(ring: FiniteRing, bounds: Bounds) -> list[Ideal]:
    return [i for i in all_ideals(ring, bounds.lattice_cap) if i.is_proper]


def _proper_radical_ideals(ring: FiniteRing, bounds: Bounds) -> list[Ideal]:
    return [i for i in _proper_ideals(ring, bounds) if is_radical_ideal(i)]


@dataclass(frozen=True)
class Check:
    """A campaign check: its runner, the ideals a campaign runs it on
    (None: once per ring, with no ideal), and whether it can sample."""

    run: Callable
    ideals: Optional[Callable[[FiniteRing, Bounds], list[Ideal]]] = None
    samples: bool = False


CHECKS = {
    "omega-table": Check(_run_omega_table, _zero_ideal),
    "conjecture1": Check(_run_conjecture1),
    "gaussian": Check(_run_gaussian, samples=True),
    "armendariz": Check(_run_armendariz, samples=True),
    "dm-bound": Check(_run_dm, samples=True),
    "poly-omega": Check(_run_poly_omega, _proper_ideals, samples=True),
    "bezout": Check(_run_bezout_sweep, samples=True),
    "certify-radical": Check(_run_certify_sweep, _proper_radical_ideals),
    "int-conjecture": Check(_run_int, samples=True),
}
CAMPAIGN_CHECKS = tuple(CHECKS)
SAMPLING_CHECKS = frozenset(name for name, c in CHECKS.items() if c.samples)

# flag name -> add_argument keywords. The option is --name with "_" written
# "-" (--dest where one is given). Every bound can be a flag; a bound flag
# takes its default from Bounds unless its command overrides it.
FLAGS = {
    "ring": dict(required=True, help="ring spec, e.g. zmod:12"),
    "ideal": dict(default="gen:none",
                  help="ideal spec, e.g. gen:4 (default gen:none)"),
    "format": dict(choices=("json", "csv", "text"), default="json"),
    "out": dict(default=None, help="write the report to a file"),
    **{key: dict(type=int) for key in BOUND_KEYS},
    "seed": dict(type=int, default=0),
    "poly": dict(required=True, help="polynomial literal, e.g. 8x+4"),
    "polys": dict(
        dest="poly", action="append", required=True,
        help="polynomial literal; repeat for each factor (at least two)",
    ),
}
_OUTPUT = ("format", "out")
_SEARCH = ("ring", *_OUTPUT, "vars", "max_deg", "sample", "seed")


@dataclass(frozen=True)
class Command:
    """A subcommand: its runner, help line, flags (keys of FLAGS, in usage
    order) and the bound defaults it overrides."""

    run: Callable
    help: str
    flags: tuple[str, ...]
    defaults: dict = field(default_factory=dict)


# subcommand -> Command; a subcommand named after a check runs that check
COMMANDS = {
    "omega": Command(_run_omega, "absorbing degree of an ideal",
                     ("ring", "ideal", *_OUTPUT, "cap")),
    "strong-omega": Command(_run_strong_omega, "strong absorbing degree",
                            ("ring", "ideal", *_OUTPUT, "cap", "lattice_cap")),
    "conjecture1": Command(_run_conjecture1,
                           "omega vs strong omega over every proper ideal",
                           ("ring", *_OUTPUT, "cap", "lattice_cap")),
    "gaussian": Command(_run_gaussian,
                        "search for content-multiplicativity violations",
                        _SEARCH),
    "armendariz": Command(
        _run_armendariz,
        "search for annihilating pairs with nonzero contents", _SEARCH,
    ),
    "dm": Command(_run_dm, "distribution of content-peeling exponents",
                  ("ring", *_OUTPUT, "vars", "max_deg", "cap", "sample", "seed")),
    "bezout": Command(_run_bezout_poly, "principal-content factorization",
                      ("ring", *_OUTPUT, "vars", "poly")),
    "certify": Command(_run_certify_polys, "iterated peeling certificate",
                       ("ring", "ideal", *_OUTPUT, "vars", "cap", "polys"),
                       {"cap": 8}),
    "poly-omega": Command(
        _run_poly_omega, "absorbing degree transfer to the polynomial ring",
        ("ring", "ideal", *_OUTPUT, "vars", "max_deg", "cap", "sample", "seed"),
    ),
    "int": Command(_run_int,
                   "integer-coefficient absorbing check for a modulus",
                   ("ring", *_OUTPUT, "max_deg", "height", "sample", "seed"),
                   {"sample": 1000}),
}


# ---------------------------------------------------------------------------
# campaign execution


def _error_record(ring: str, ideal: str, check: str, exc: Exception) -> dict:
    return _record(
        ring, ideal, check, "error", f"error={type(exc).__name__}: {exc}",
        None, "error", 0,
    )


def _campaign_records(
    spec_text: str, checks: Sequence[str], bounds: Bounds, seed: int
) -> list[dict]:
    """All records for one ring, sequentially (shared caches stay safe).

    Each record is isolated: an exception, also one raised while listing a
    check's ideals, becomes an error record and the campaign goes on.
    """
    try:
        ring = parse_ring_spec(spec_text, bounds.order_cap)
    except Exception as exc:
        return [_error_record(spec_text, "-", check, exc) for check in checks]

    records: list[dict] = []
    for name in checks:
        try:
            check = CHECKS.get(name)
            if check is None:  # load_campaign_config validates names
                raise ValueError(f"unknown check {name}")
            if check.ideals is None:
                targets = [("-", None, _derive_seed(seed, spec_text, name))]
            else:
                targets = []
                for ideal in check.ideals(ring, bounds):
                    itext = ideal_spec(ideal)
                    s = _derive_seed(seed, spec_text, name, itext)
                    targets.append((itext, ideal, s))
        except Exception as exc:
            records.append(_error_record(spec_text, "-", name, exc))
            continue
        for itext, ideal, s in targets:
            try:
                (mode, result, witness, status), millis = _timed(
                    check.run, ring, ideal, bounds, s, ()
                )
            except Exception as exc:  # per-record isolation
                records.append(_error_record(spec_text, itext, name, exc))
                continue
            records.append(
                _record(spec_text, itext, name, mode, result, witness, status,
                        millis)
            )
    return records


def load_campaign_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    allowed = {"rings", "checks", "bounds", "seed", "jobs", "output"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    rings = raw.get("rings")
    if not isinstance(rings, list) or not rings or not all(
        isinstance(r, str) for r in rings
    ):
        raise ConfigError("config needs 'rings': a nonempty list of ring specs")
    checks = raw.get("checks")
    if not isinstance(checks, list) or not checks or not all(
        isinstance(c, str) for c in checks
    ):
        raise ConfigError("config needs 'checks': a nonempty list of check names")
    bad = [c for c in checks if c not in CAMPAIGN_CHECKS]
    if bad:
        raise ConfigError(
            f"unknown checks {bad}; valid: {list(CAMPAIGN_CHECKS)}"
        )
    bounds_raw = raw.get("bounds", {})
    if not isinstance(bounds_raw, dict):
        raise ConfigError("'bounds' must be an object")
    unknown_b = set(bounds_raw) - set(BOUND_KEYS)
    if unknown_b:
        raise ConfigError(f"unknown bounds keys: {sorted(unknown_b)}")
    for key, value in bounds_raw.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"bounds.{key} must be an integer")
    try:
        bounds = Bounds(**bounds_raw)
    except ValueError as exc:
        raise ConfigError(f"bounds.{exc}") from exc
    seed = raw.get("seed")
    if seed is None and any(c in SAMPLING_CHECKS for c in checks):
        raise ConfigError(
            "config needs an explicit 'seed' when sampling-capable checks "
            "are selected"
        )
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise ConfigError("'seed' must be an integer")
    jobs = raw.get("jobs", 1)
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ConfigError("'jobs' must be a positive integer")
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("'output' must be a path string")
    return {
        "rings": rings,
        "checks": checks,
        "bounds": bounds,
        "seed": 0 if seed is None else seed,
        "jobs": jobs,
        "output": output,
    }


def run_campaign(config: dict, jobs_override: Optional[int] = None) -> list[dict]:
    bounds: Bounds = config["bounds"]
    seed: int = config["seed"]
    jobs = jobs_override if jobs_override is not None else config["jobs"]
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    ring_specs = list(dict.fromkeys(config["rings"]))
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        chunks = list(
            pool.map(
                lambda spec: _campaign_records(spec, config["checks"], bounds, seed),
                ring_specs,
            )
        )
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: (r["ring"], r["ideal"], r["check"]))
    return records


# ---------------------------------------------------------------------------
# serialization


def _summary(records: list[dict]) -> dict:
    counter_idx = [
        i for i, r in enumerate(records) if r["status"] == "counterexample"
    ]
    return {
        "records": len(records),
        "pass": sum(1 for r in records if r["status"] == "pass"),
        "counterexamples": counter_idx,
        "cap_exceeded": sum(1 for r in records if r["status"] == "cap"),
        "errors": sum(1 for r in records if r["status"] == "error"),
    }


def render_report(
    records: list[dict], config_echo: dict, fmt: str
) -> tuple[str, dict]:
    summary = _summary(records)
    if fmt == "json":
        cleaned = [dict(r, millis=0) for r in records]
        payload = {
            "version": VERSION,
            "config": config_echo,
            "records": cleaned,
            "summary": summary,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n", summary
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["ring", "ideal", "check", "mode", "status", "result", "witness", "millis"]
        )
        for r in records:
            writer.writerow(
                [
                    r["ring"],
                    r["ideal"],
                    r["check"],
                    r["mode"],
                    r["status"],
                    r["result"],
                    r["witness"] or "",
                    0,
                ]
            )
        return buf.getvalue(), summary
    lines = [f"omegalab {VERSION}"]
    for r in records:
        witness = f" witness[{r['witness']}]" if r["witness"] else ""
        lines.append(
            f"{r['ring']} {r['ideal']} {r['check']} [{r['mode']}] "
            f"{r['status'].upper()}: {r['result']}{witness} ({r['millis']}ms)"
        )
    s = summary
    lines.append(
        f"summary: records={s['records']} pass={s['pass']} "
        f"counterexamples={len(s['counterexamples'])} "
        f"cap_exceeded={s['cap_exceeded']} errors={s['errors']}"
    )
    for i in s["counterexamples"]:
        r = records[i]
        lines.append(f"counterexample: {r['ring']} {r['ideal']} {r['check']}")
    return "\n".join(lines) + "\n", summary


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _emit(text: str, path: Optional[str], summary: dict) -> int:
    """Write the report and return the exit code (1 if it cannot be written)."""
    try:
        _write_output(text, path)
    except OSError as exc:
        print(f"omegalab: error: cannot write report: {path or '<stdout>'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 1
    if summary["counterexamples"]:
        return 2
    if summary["errors"]:
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> _Parser:
    parser = _Parser(prog="omegalab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"omegalab {VERSION}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in COMMANDS.items():
        sp = subs.add_parser(name, help=command.help)
        for flag in command.flags:
            kwargs = dict(FLAGS[flag])
            if flag in BOUND_KEYS:
                kwargs["default"] = command.defaults.get(
                    flag, getattr(Bounds, flag)
                )
            option = kwargs.get("dest", flag).replace("_", "-")
            sp.add_argument(f"--{option}", **kwargs)

    sp = subs.add_parser("campaign", help="run a JSON-configured campaign")
    sp.add_argument("--config", required=True, help="path to the campaign config")
    sp.add_argument("--jobs", type=int, default=None, help="override config jobs")
    sp.add_argument("--format", **FLAGS["format"])
    sp.add_argument("--out", default=None, help="override config output path")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "campaign":
        if args.jobs is not None and args.jobs < 1:
            print(f"omegalab: error: --jobs must be >= 1, got {args.jobs}",
                  file=sys.stderr)
            return 1
        try:
            config = load_campaign_config(args.config)
        except (ConfigError, OSError) as exc:
            print(f"omegalab: config error: {exc}", file=sys.stderr)
            return 1
        records = run_campaign(config, args.jobs)
        echo = {
            "command": "campaign",
            "rings": config["rings"],
            "checks": config["checks"],
            "bounds": dict(
                (k, getattr(config["bounds"], k)) for k in BOUND_KEYS
            ),
            "seed": config["seed"],
        }
        text, summary = render_report(records, echo, args.format)
        out_path = args.out if args.out is not None else config["output"]
        return _emit(text, out_path, summary)

    # the namespace holds the command's flags: echo all but the output ones
    echo = {k: v for k, v in vars(args).items() if k not in _OUTPUT}
    seed = getattr(args, "seed", 0)

    try:
        bounds = Bounds(**{k: v for k, v in echo.items() if k in BOUND_KEYS})
        ring = parse_ring_spec(args.ring, bounds.order_cap)
        ideal = (
            parse_ideal_spec(ring, args.ideal) if hasattr(args, "ideal") else None
        )
        poly = getattr(args, "poly", ())
        polys = [poly] if isinstance(poly, str) else poly
        (mode, result, witness, status), millis = _timed(
            COMMANDS[args.command].run, ring, ideal, bounds, seed, polys
        )
    except SpecParseError as exc:
        print(f"omegalab: parse error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"omegalab: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    ideal_field = getattr(args, "ideal", "-")
    records = [
        _record(args.ring, ideal_field, args.command, mode, result, witness,
                status, millis)
    ]
    text, summary = render_report(records, echo, args.format)
    return _emit(text, args.out, summary)


if __name__ == "__main__":
    sys.exit(main())
