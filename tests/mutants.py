"""The standing mutation gate. Each mutant undoes a sound reduction or a
pinned detail of ``src/omegalab``, and the tests listed with it must fail
on the mutated code. Run from anywhere:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME [NAME]  # only these

For each mutant the runner copies ``src``, ``tests`` and ``pyproject.toml``
into a fresh temporary directory, replaces the mutant's old text, which
must occur exactly once in its file, and runs pytest there on the listed
tests, stopping at the first failure; the working tree is never edited.
A mutant is killed when pytest reports a failed test (exit status 1). The
runner exits 1 when a mutant survives, cannot be applied, or its tests
cannot run. The gate assumes the unmutated suite passes.

A new sound reduction adds its mutant here. A mutant that survives stays
on the list until a test kills it."""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/omegalab
    old: str
    new: str
    tests: tuple[str, ...]  # pytest paths or node ids, from the root


MUTANTS = (
    # the axiom scan's byte kernel: each composition translates through
    # row i, closure deletes the bytes 0..n-1, column i is the slice [i::n]
    Mutant(
        "axiom-translate-through-row-j", "rings.py",
        "B[j].translate(TA[i])", "B[j].translate(TA[j])",
        ("tests/test_rings.py",),
    ),
    Mutant(
        "axiom-no-range-check", "rings.py",
        "closed = not (flat_a + flat_m).translate(None, bytes(rng))", "closed = True",
        ("tests/test_rings.py",),
    ),
    Mutant(
        "axiom-column-slice-off-by-one", "rings.py",
        "if row != flat_a[i::n]:", "if row != flat_a[i + 1::n]:",
        ("tests/test_rings.py",),
    ),
    # the kept rows as bytes: a product block is the right factor's row
    # translated by shift[v], v*|B| + y at y; a factor entry out of range
    # sends the product to its integer entries; a trunc add row is the
    # step of e_k, each block of p*s indices rotated by s, read through row
    # a - s, and the mul row of e_i maps e_j to e_i*e_j, zero past the
    # truncation
    Mutant(
        "product-block-shifted-by-left-order", "rings.py",
        "bytes(range(v * B, v * B + B))", "bytes(range(v * A, v * A + B))",
        ("tests/test_reductions.py::test_kept_rows_match_methods",),
    ),
    Mutant(
        "product-no-factor-range-check", "rings.py",
        "if max(map(max, lb)) >= A or max(map(max, rb)) >= B:", "if False:",
        ("tests/test_rings.py::test_product_over_a_corrupted_factor_fails_cleanly",),
    ),
    Mutant(
        "trunc-add-step-rotates-by-one", "rings.py",
        "R[o + s : o + p * s] + R[o : o + s]", "R[o + 1 : o + p * s] + R[o : o + 1]",
        ("tests/test_reductions.py::test_kept_rows_match_methods",),
    ),
    Mutant(
        "trunc-basis-row-past-truncation", "rings.py",
        "powers[q] if q >= 0 else 0", "powers[q]",
        ("tests/test_reductions.py::test_kept_rows_match_methods",),
    ),
    # omega is N, the local-factor bound, exactly
    Mutant(
        "degree-bound-plus-one", "absorbing.py",
        "bound = _local_bound(ideal)", "bound = _local_bound(ideal) + 1",
        ("tests/test_absorbing.py",),
    ),
    Mutant(
        "degree-bound-minus-one", "absorbing.py",
        "bound = _local_bound(ideal)", "bound = max(_local_bound(ideal) - 1, 1)",
        ("tests/test_absorbing.py",),
    ),
    # IJ = JI is stored under (b, a) as well
    Mutant(
        "product-no-mirror-store", "ideals.py",
        "got = self.products[b][a] = self.id_of_coeffs(", "got = self.id_of_coeffs(",
        ("tests/test_ideal_space.py::test_product_table_symmetric_and_filled_once",),
    ),
    # a group keeps the least rank folded into it
    Mutant(
        "pair-groups-fold-without-min", "content_checks.py",
        "entry[1] = min(entry[1], rank)", "pass",
        ("tests/test_content_checks.py::"
         "test_pair_groups_keep_the_first_pair_of_the_ordered_walk",),
    ),
    # the unit-orbit walk weights each representative pair by its orbits
    Mutant(
        "pair-groups-unit-weights", "content_checks.py",
        "weight = weights[i] * weights[j]", "weight = 1",
        ("tests/test_content_checks.py",),
    ),
    # the last factor is decided by H(prefix) & ~H(q_0) & .. & ~H(q_(n-1))
    Mutant(
        "multiset-scan-no-hit-mask-and", "absorbing.py",
        "found &= ~mask(table[prefix[t]][suffix], start)", "found &= -1",
        ("tests/test_absorbing.py",),
    ),
    # a prefix whose product lies in I is cut
    Mutant(
        "multiset-scan-no-prefix-cut", "absorbing.py",
        "if p not in inside:", "if True:",
        ("tests/test_absorbing.py::test_multiset_scan_cuts_prefixes_inside",),
    ),
    # the lowest-term zero test: a hint leaves out only the candidates
    # whose lowest residue times low[p] is nonzero, and the whole-scan cut
    # needs 0 outside the closure of the lowest residues
    Mutant(
        "residue-hint-skips-annihilators", "polys.py",
        "if times[a][b] == zero_residue", "if times[a][b] != zero_residue",
        ("tests/test_reductions.py::test_int_leg_exhaustive_counts",),
    ),
    Mutant(
        "residue-cut-ignores-zero-in-closure", "polys.py",
        "if zero_residue not in closure:", "if True:",
        ("tests/test_reductions.py::test_int_leg_exhaustive_counts",),
    ),
    Mutant(
        "residue-cut-leaves-off-by-one", "polys.py",
        "math.comb(len(cands) + n, n + 1)", "math.comb(len(cands) + n, n + 1) + 1",
        ("tests/test_integers.py",),
    ),
    # a sampled integer draw is skipped only when its lowest coefficients
    # multiply to a nonzero residue
    Mutant(
        "int-sampled-skip-inverted", "integers.py",
        "or math.prod(low[c] for c in ids) % m:",
        "or math.prod(low[c] for c in ids) % m == 0:",
        ("tests/test_reductions.py::test_int_leg_matches_expanding_reference",),
    ),
    # I + (c) of nested ideals is the larger one, read without cosets
    Mutant(
        "ideal-sum-nested-returns-generator", "ideals.py",
        "got = ideal_id", "got = pid",
        ("tests/test_ideal_space.py::"
         "test_extend_above_table_limit_matches_worklist_closure",),
    ),
    # one uniform_draws call per chunk, packed by length, then by arity
    Mutant(
        "sampled-tuples-pack-by-arity-first", "content_checks.py",
        "coeffs = zip(*[values] * length)\n            yield from zip(*[coeffs] * arity)",
        "coeffs = zip(*[values] * arity)\n            yield from zip(*[coeffs] * length)",
        ("tests/test_content_checks.py::test_sampled_tuples_match_randrange_draws",),
    ),
    # the exhaustive pair searches skip orbits with a principal content
    Mutant(
        "pair-search-no-principal-filter", "content_checks.py",
        "if cid not in principal:", "if True:",
        ("tests/test_content_checks.py::"
         "test_cube_search_decides_each_unordered_orbit_pair_once",),
    ),
    # the class table appends the least generator of (v) and takes the
    # degree from the last nonzero slot
    Mutant(
        "class-table-largest-generator", "content_checks.py",
        "for v in range(ring.order):", "for v in reversed(range(ring.order)):",
        ("tests/test_content_checks.py::test_class_table_equals_the_tuple_pass",),
    ),
    Mutant(
        "class-table-degree-from-first-nonzero-slot", "content_checks.py",
        "d if v == zero else slot_deg",
        "d if v == zero or cid != space.zero_id else slot_deg",
        ("tests/test_content_checks.py::test_class_table_equals_the_tuple_pass",),
    ),
    Mutant(
        "multiset-rank-off-by-one", "absorbing.py",
        "rank, prev = 1, 0", "rank, prev = 0, 0",
        ("tests/test_reductions.py::test_lex_rank_matches_enumeration_order",),
    ),
)


def run(mutant: Mutant) -> str:
    """'killed' with the first failed test, 'survived', or an error naming
    why the mutant did not run."""
    with tempfile.TemporaryDirectory(prefix="omegalab-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work)
        target = work / "src" / "omegalab" / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"error: old text found {text.count(mutant.old)} times in {mutant.file}"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=work, env=env, capture_output=True, text=True,
        )
    if proc.returncode == 0:
        return "survived"
    if proc.returncode == 1:
        failed = [line for line in proc.stdout.splitlines() if line.startswith("FAILED")]
        return "killed: " + (failed[0] if failed else "no FAILED line")
    return f"error: pytest exit status {proc.returncode}\n{proc.stdout[-2000:]}"


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in [known[n] for n in names] or MUTANTS:
        start = time.perf_counter()
        verdict = run(mutant)
        failed += not verdict.startswith("killed")
        print(f"{mutant.name} ({time.perf_counter() - start:.1f} s): {verdict}", flush=True)
    print(f"{len(names or MUTANTS) - failed} killed, {failed} not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
