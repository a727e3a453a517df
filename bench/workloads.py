"""The three benchmark workloads: their units, records and oracles.

A unit is one closed-loop call into omegalab: it starts from spec strings,
so every unit builds its own ring and pays for cold caches, as a single CLI
call does. ``run`` is the timed part. ``record`` turns its result into a
plain JSON value that is compared with the committed expected record, and
``oracle`` returns the problems found by checks that hold for every seed.
Both run outside the timed region and with tracing off.

Every call goes through a module attribute (``rings.parse_ring_spec``, not
a name imported into this file), so that the traced run, which rebinds
those attributes, sees it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

from omegalab import absorbing, cli, content_checks, ideals, polys, rings

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Unit:
    key: str
    run: Callable[[], Any]
    record: Callable[[Any], Any]
    oracle: Callable[[Any], list[str]]


def _no_oracle(_result) -> list[str]:
    return []


# ---------------------------------------------------------------------------
# absorb: rings, ideals and absorbing scans, no polynomial work

ABSORB_RINGS = (
    [f"zmod:{m}" for m in range(2, 65)]
    + ["zmod:128"]
    + [
        f"prod:zmod:{a},zmod:{b}"
        for a, b in ((2, 2), (2, 4), (4, 4), (4, 9), (2, 27), (4, 8), (8, 9))
    ]
    + [
        f"trunc:p={p},vars={k},nil={e}"
        for p, k, e in (
            (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 2), (2, 2, 3),
            (3, 1, 2), (3, 1, 3), (3, 2, 2), (5, 1, 2),
        )
    ]
)
BUILD_RING = "zmod:256"


def big_omega(m: int) -> int:
    """Prime factors of m with multiplicity: the value omega_int(m) gives."""
    count, p = 0, 2
    while p * p <= m:
        while m % p == 0:
            m //= p
            count += 1
        p += 1
    return count + (m > 1)


def _ring_product(ring, values) -> int:
    acc = ring.one
    for v in values:
        acc = ring.mul(acc, v)
    return acc


def _element_witness_ok(ideal, witness) -> bool:
    """The whole product lies in I and no product that drops one factor does."""
    ring = ideal.ring
    if _ring_product(ring, witness) not in ideal.elements:
        return False
    return all(
        _ring_product(ring, witness[:i] + witness[i + 1:]) not in ideal.elements
        for i in range(len(witness))
    )


def _ideals_product_inside(ideal, factors) -> bool:
    """The product of the factor ideals lies in I exactly when every product
    of one generator from each factor does, because I is an ideal."""
    ring = ideal.ring
    choices = [f.generators or (ring.zero,) for f in factors]
    acc = [ring.one]
    for gens in choices:
        acc = [ring.mul(a, g) for a in acc for g in gens]
    return all(a in ideal.elements for a in acc)


def _ideal_witness_ok(ideal, witness) -> bool:
    if not _ideals_product_inside(ideal, witness):
        return False
    return not any(
        _ideals_product_inside(ideal, witness[:i] + witness[i + 1:])
        for i in range(len(witness))
    )


def _conjecture1_record(report) -> list:
    rows = []
    for row in report.rows:
        w = row.omega.lower_witness
        s = row.strong.lower_witness
        rows.append([
            ideals.ideal_spec(row.ideal),
            row.omega.describe(),
            list(w) if w else None,
            row.strong.describe(),
            [ideals.ideal_spec(i) for i in s] if s else None,
        ])
    return rows


def _conjecture1_oracle(spec: str):
    def check(report) -> list[str]:
        problems = []
        ring = report.ring
        for row in report.rows:
            name = f"{spec} {ideals.ideal_spec(row.ideal)}"
            if row.ideal.is_zero and isinstance(ring, rings.ZmodRing):
                want = big_omega(ring.modulus)
                got = row.omega.value
                if got != want and not (got is None and want > row.omega.cap):
                    problems.append(f"{name}: omega {row.omega.describe()} != {want}")
            if row.agree is False:
                problems.append(f"{name}: omega != strong omega")
            for res, verify in ((row.omega, _element_witness_ok),
                                (row.strong, _ideal_witness_ok)):
                if res.lower_witness and not verify(row.ideal, res.lower_witness):
                    problems.append(f"{name}: witness {res.lower_witness} fails")
        return problems
    return check


def absorb_units(seed: int) -> list[Unit]:
    units = [
        Unit(
            f"conjecture1 {spec}",
            lambda spec=spec: absorbing.omega_agreement_table(
                rings.parse_ring_spec(spec)
            ),
            _conjecture1_record,
            _conjecture1_oracle(spec),
        )
        for spec in ABSORB_RINGS
    ]
    units.append(
        Unit(
            f"build {BUILD_RING}",
            lambda: rings.parse_ring_spec(BUILD_RING),
            lambda ring: [ring.descriptor, ring.order],
            _no_oracle,
        )
    )
    random.Random(seed).shuffle(units)
    return units


# ---------------------------------------------------------------------------
# content: exhaustive content sweeps on rings with arithmetic tables

# proper radical ideals of each ring, in lattice order; certify runs on each
CONTENT_RINGS = {
    "zmod:2": ["gen:none"],
    "zmod:3": ["gen:none"],
    "zmod:4": ["gen:2"],
    "zmod:5": ["gen:none"],
    "zmod:6": ["gen:none", "gen:3", "gen:2"],
    "zmod:7": ["gen:none"],
    "zmod:8": ["gen:2"],
    "zmod:9": ["gen:3"],
    "zmod:10": ["gen:none", "gen:5", "gen:2"],
    "zmod:11": ["gen:none"],
    "zmod:12": ["gen:6", "gen:3", "gen:2"],
    "zmod:13": ["gen:none"],
    "zmod:14": ["gen:none", "gen:7", "gen:2"],
    "zmod:15": ["gen:none", "gen:5", "gen:3"],
    "zmod:16": ["gen:2"],
    "prod:zmod:2,zmod:2": ["gen:none", "gen:1", "gen:2"],
    "prod:zmod:2,zmod:3": ["gen:none", "gen:3", "gen:1"],
    "prod:zmod:2,zmod:4": ["gen:2", "gen:1", "gen:2,4"],
    "prod:zmod:3,zmod:3": ["gen:none", "gen:1", "gen:3"],
    "trunc:p=2,vars=1,nil=2": ["gen:2"],
    "trunc:p=2,vars=1,nil=3": ["gen:2"],
    "trunc:p=2,vars=2,nil=2": ["gen:2,4"],
    "trunc:p=3,vars=1,nil=2": ["gen:3"],
}
CUBE_RING = "trunc:p=2,vars=2,nil=3"
CUBE_WITNESS = ["2+4x", "2+4x"]


def _pair(witness):
    return [polys.display_poly(p) for p in witness] if witness else None


def _dm_record(t) -> list:
    return [[list(h) for h in t.histogram], t.max_exponent, _pair(t.witness),
            t.bound_holds, t.cap_exceeded, t.checked, t.mode]


def _dm_oracle(t) -> list[str]:
    return [] if t.bound_holds is True else [f"dm bound_holds={t.bound_holds}"]


def _search_record(o) -> list:
    return [o.found, _pair(o.witness), o.checked, o.mode]


def _cube_oracle(o) -> list[str]:
    got = _pair(o.witness)
    return [] if got == CUBE_WITNESS else [f"cube witness {got} != {CUBE_WITNESS}"]


def _certify_record(s) -> list:
    return [s.pairs, s.qualifying, s.max_exponent, s.exp_bound_holds,
            s.chain_holds, s.final_holds, _pair(s.witness), s.mode]


def _dm_unit(spec: str, deg: int) -> Unit:
    return Unit(
        f"dm {spec} deg={deg}",
        lambda: content_checks.dm_exponent_table(rings.parse_ring_spec(spec), 1, deg),
        _dm_record,
        _dm_oracle,
    )


def _search_unit(kind: str, spec: str, oracle=_no_oracle) -> Unit:
    return Unit(
        f"{kind} {spec}",
        lambda: getattr(content_checks, f"{kind}_search")(rings.parse_ring_spec(spec), 1, 1),
        _search_record,
        oracle,
    )


def _certify_unit(spec: str, ideal_text: str) -> Unit:
    def run():
        ring = rings.parse_ring_spec(spec)
        return content_checks.certify_pair_sweep(ideals.parse_ideal_spec(ring, ideal_text))

    return Unit(f"certify {spec} {ideal_text}", run, _certify_record, _no_oracle)


def content_units(seed: int) -> list[Unit]:
    units = []
    for spec, radicals in CONTENT_RINGS.items():
        units.append(_dm_unit(spec, 1))
        units.append(_search_unit("gaussian", spec))
        units.append(_search_unit("armendariz", spec))
        units.extend(_certify_unit(spec, itext) for itext in radicals)
    units += [
        _dm_unit("zmod:4", 3),
        _dm_unit("zmod:6", 2),
        _search_unit("gaussian", CUBE_RING, _cube_oracle),
    ]
    random.Random(seed).shuffle(units)
    return units


# ---------------------------------------------------------------------------
# campaign: the CLI campaign runner and json report over two configs

CAMPAIGN_CONFIGS = {
    "A": {
        "rings": ["zmod:12", "zmod:18", "prod:zmod:2,zmod:3",
                  "trunc:p=2,vars=2,nil=2", "trunc:p=3,vars=1,nil=2"],
        "checks": list(cli.CAMPAIGN_CHECKS),
        "bounds": {"max_deg": 1, "sample": 2000},
    },
    "B": {
        "rings": ["zmod:300", "zmod:360"],
        "checks": ["dm-bound", "certify-radical", "int-conjecture"],
        "bounds": {"sample": 1000},
    },
}
CAMPAIGN_JOBS = 2


def campaign_seeds(seed: int) -> dict[str, int]:
    rng = random.Random(seed)
    return {name: rng.randrange(2**31) for name in CAMPAIGN_CONFIGS}


@dataclass(frozen=True)
class CampaignResult:
    records: list
    report: str


def _campaign_unit(name: str, seed: int, jobs: int) -> Unit:
    raw = CAMPAIGN_CONFIGS[name]
    bounds = cli.Bounds(**raw["bounds"])
    config = {"rings": raw["rings"], "checks": raw["checks"], "bounds": bounds,
              "seed": seed, "jobs": jobs, "output": None}
    echo = {"command": "campaign", "rings": raw["rings"], "checks": raw["checks"],
            "bounds": {k: getattr(bounds, k) for k in cli.BOUND_KEYS}, "seed": seed}

    def run() -> CampaignResult:
        records = cli.run_campaign(config)
        text, _ = cli.render_report(records, echo, "json")
        return CampaignResult(records, text)

    def record(result: CampaignResult) -> dict:
        return {
            "sha256": hashlib.sha256(result.report.encode()).hexdigest(),
            "records": {
                f"{r['ring']} {r['ideal']} {r['check']}":
                    [r["mode"], r["status"], r["result"], r["witness"]]
                for r in result.records
            },
        }

    return Unit(f"campaign {name}", run, record, _no_oracle)


def campaign_units(seed: int, jobs: int = CAMPAIGN_JOBS) -> list[Unit]:
    return [_campaign_unit(name, s, jobs) for name, s in campaign_seeds(seed).items()]


def campaign_mismatches(observed: dict, expected: dict, exact: bool) -> int:
    """Records (or, when exact, record fields and report bytes) that differ.

    With exact, every field of every record must match and the report's
    sha256 too; a differing report whose records all match counts once.
    Otherwise only the record keys and statuses are compared, which hold
    for every seed.
    """
    got, want = observed["records"], expected["records"]
    bad = len(set(got) ^ set(want))
    for key in set(got) & set(want):
        if exact:
            bad += got[key] != want[key]
        else:
            bad += got[key][1] != want[key][1]
    if exact and not bad and observed["sha256"] != expected["sha256"]:
        bad = 1
    return bad


def unit_count(unit: Unit, expected: Any) -> int:
    """How many checked items a unit stands for: records for a campaign."""
    return len(expected["records"]) if unit.key.startswith("campaign") else 1


WORKLOADS = {
    "absorb": absorb_units,
    "content": content_units,
    "campaign": campaign_units,
}


def load_expected(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(unit: Unit, observed: Any, expected: Any, exact: bool) -> int:
    """Failed items of one unit against its expected record."""
    if unit.key.startswith("campaign"):
        return campaign_mismatches(observed, expected, exact)
    return int(observed != expected)
