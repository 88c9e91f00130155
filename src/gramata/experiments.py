"""Runnable acceptance experiments, one stable identifier per criterion.

Each experiment returns a pass/fail result with evidence lines; the CLI
`paper` command and the acceptance test suite are thin adapters over this
registry.
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

from . import algebra, analysis, constructions, model
from .algebra import (
    BS_A,
    BS_B,
    FreeAbelian,
    FreeGroup,
    Heis,
    HeisenbergGroup,
    Matrix,
    heis_mul,
    heis_to_matrix,
)
from .constructions import CONSTRUCTIONS, construction_budget, oracle, standard_generators
from .errors import GramataError
from .simulate import accepts, all_words, enumerate_words, equiv_check


@dataclass
class ExperimentResult:
    experiment_id: str
    passed: bool
    seconds: float
    lines: list = field(default_factory=list)

    def render(self):
        head = f"{'PASS' if self.passed else 'FAIL'}  {self.experiment_id}  ({self.seconds:.2f}s)"
        return [head] + ["  " + line for line in self.lines]


@dataclass(frozen=True)
class Experiment:
    experiment_id: str
    criterion: int
    description: str
    run: Callable[[], tuple]


def corpus_dir():
    """Locate the shipped corpus; regenerate into a temp dir as a fallback."""
    env = os.environ.get("GRAMATA_CORPUS")
    candidates = [env] if env else []
    here = os.path.dirname(os.path.abspath(__file__))
    candidates += [
        os.path.join(os.getcwd(), "corpus"),
        os.path.abspath(os.path.join(here, "..", "..", "corpus")),
    ]
    for cand in candidates:
        if cand and os.path.isdir(cand):
            return cand
    tmp = os.path.join(tempfile.gettempdir(), "gramata-corpus")
    constructions.emit_corpus(tmp)
    return tmp


def _equiv_experiment(name, max_len):
    spec = CONSTRUCTIONS[name]
    language = oracle(spec.oracle_name)
    report = equiv_check(spec.build(), language, language.alphabet, max_len, spec.budget, name=name)
    return report.clean, report.lines()


def _run_oddpow_traces():
    """The proof's three register shapes, checked symbolically for x <= 10,
    plus the identity characterization y = 2^(2x+1), z = x+1."""
    A1, A2, A3, A4 = (
        constructions.ODDPOW_A1,
        constructions.ODDPOW_A2,
        constructions.ODDPOW_A3,
        constructions.ODDPOW_A4,
    )
    failures = []
    for x in range(0, 11):
        t1 = A1 * A2**x
        want1 = Matrix(((2 ** (x + 1), 0), (2**x, Fraction(1, 2 ** (x + 1)))))
        if t1 != want1:
            failures.append(f"stage-1 trace broken at x={x}")
        y_member = 2 ** (2 * x + 1)
        for y in (y_member - 1, y_member, y_member + 1):
            t2 = t1 * A3**y
            want2 = Matrix(
                ((2 ** (x + 1), 0), (2**x - Fraction(y, 2 ** (x + 1)), Fraction(1, 2 ** (x + 1))))
            )
            if t2 != want2:
                failures.append(f"stage-2 trace broken at x={x}, y={y}")
            for z in (x, x + 1, x + 2):
                t3 = t2 * A4**z
                want3 = Matrix(
                    (
                        (Fraction(2 ** (x + 1), 2**z), 0),
                        (
                            (2**x - Fraction(y, 2 ** (x + 1))) * Fraction(1, 2**z),
                            Fraction(2**z, 2 ** (x + 1)),
                        ),
                    )
                )
                if t3 != want3:
                    failures.append(f"stage-3 trace broken at x={x}, y={y}, z={z}")
                expect_identity = y == y_member and z == x + 1
                if t3.is_identity() != expect_identity:
                    failures.append(f"identity characterization broken at x={x}, y={y}, z={z}")
    lines = [f"traces verified for x=0..10 ({'ok' if not failures else 'BROKEN'})"] + failures
    return not failures, lines


def _run_algebra_identities():
    lines = []
    ok = True

    relation = BS_B * BS_A * BS_B.inverse()
    want = Matrix(((1, 0), (-2, 1)))
    if relation == BS_A * BS_A == want:
        lines.append("BS(1,2) relation BAB^-1 = A^2 = [[1,0],[-2,1]] holds exactly")
    else:
        ok = False
        lines.append(f"BS relation broken: {relation!r}")

    rng = random.Random(20834)
    bad = 0
    for _ in range(1000):
        g = Heis(rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(-50, 50))
        h = Heis(rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(-50, 50))
        if heis_to_matrix(heis_mul(g, h)) != heis_to_matrix(g) * heis_to_matrix(h):
            bad += 1
    if bad:
        ok = False
    lines.append(f"Heisenberg closed form vs 3x3 matrices: {1000 - bad}/1000 random pairs agree")

    # determinants of every register in every shipped construction; the
    # BS(1,2) machine is the documented exception with dets 2, 1, 1/2
    upow_dets = {2: Fraction(2), 1: Fraction(1)}
    for name, spec in sorted(CONSTRUCTIONS.items()):
        machine = spec.build()
        group = machine.group
        dets = set()
        for t in machine.transitions:
            if isinstance(t.register, Matrix):
                dets.add(t.register.det())
            elif isinstance(t.register, Heis):
                dets.add(heis_to_matrix(t.register).det())
        if not dets:
            continue
        if name == "upow":
            expected = {Fraction(2), Fraction(1), Fraction(1, 2)}
            if dets != expected:
                ok = False
                lines.append(f"upow register determinants unexpected: {sorted(dets)}")
            else:
                lines.append("upow register determinants are 2, 1, 1/2 (BS matrices, as displayed)")
        else:
            if dets != {Fraction(1)}:
                ok = False
                lines.append(f"{name}: non-unit determinant registers: {sorted(dets)}")
            else:
                lines.append(f"{name}: every matrix register has determinant 1")
    return ok, lines


_SANOV_INT = {
    0: (1, 2, 0, 1),
    1: (1, -2, 0, 1),
    2: (1, 0, 2, 1),
    3: (1, 0, -2, 1),
}
_SANOV_INV = {0: 1, 1: 0, 2: 3, 3: 2}


def _imul(m, g):
    a, b, c, d = m
    e, f, gg, h = g
    return (a * e + b * gg, a * f + b * h, c * e + d * gg, c * f + d * h)


def _run_sanov_faithful():
    """Walk every reduced rank-2 word of length <= 12, carrying the image
    matrix incrementally; the identity must appear only at the empty word.
    The incremental product is definitionally the embedding's value; the
    library function is cross-checked on a random sample."""
    identity = (1, 0, 0, 1)
    count = 0
    violations = 0
    stack = [(identity, -1, 0)]
    while stack:
        m, last, length = stack.pop()
        count += 1
        if length > 0 and m == identity:
            violations += 1
        if length < 12:
            for li in range(4):
                if last != -1 and li == _SANOV_INV[last]:
                    continue
                stack.append((_imul(m, _SANOV_INT[li]), li, length + 1))

    rng = random.Random(5150)
    sample_bad = 0
    for _ in range(2000):
        letters = []
        last = None
        for _ in range(rng.randint(0, 12)):
            while True:
                li = rng.randint(0, 3)
                if last is None or li != _SANOV_INV[last]:
                    break
            last = li
            letters.append((0 if li < 2 else 1, 1 if li in (0, 2) else -1))
        w = algebra.Word(tuple(letters))
        reference = identity
        for g, s in w.letters:
            li = (0 if s == 1 else 1) if g == 0 else (2 if s == 1 else 3)
            reference = _imul(reference, _SANOV_INT[li])
        flat = tuple(x for row in algebra.sanov_embed(w).rows for x in row)
        if flat != tuple(Fraction(v) for v in reference):
            sample_bad += 1

    ok = count == 1062881 and violations == 0 and sample_bad == 0
    lines = [
        f"scanned {count} reduced words of length <= 12",
        f"nonempty words mapping to the identity: {violations}",
        f"library-embedding sample cross-check failures: {sample_bad}/2000",
    ]
    return ok, lines


def _run_qplus_transform():
    source = constructions.build_qplus_eqcount()
    target = constructions.transform_qplus_to_sl2q(source)
    policy = construction_budget("qplus-eqcount")
    before = enumerate_words(source, 10, policy)
    after = enumerate_words(target, 10, policy)
    same = before.words == after.words and not before.budget_exhausted and not after.budget_exhausted
    dets = {t.register.det() for t in target.transitions}
    lines = [
        f"{len(before.words)} accepted words up to length 10; languages identical: {same}",
        f"transformed register determinants: {sorted(dets)}",
    ]
    return same and dets == {Fraction(1)}, lines


def _run_growth_tables():
    ok = True
    lines = []
    z = analysis.growth(FreeAbelian(1), standard_generators(FreeAbelian(1)), 10)
    z2 = analysis.growth(FreeAbelian(2), standard_generators(FreeAbelian(2)), 10)
    f2 = analysis.growth(FreeGroup(2), standard_generators(FreeGroup(2)), 10)
    checks = [
        ("Z, 2r+1", z, [2 * r + 1 for r in range(11)]),
        ("Z^2, 2r^2+2r+1", z2, [2 * r * r + 2 * r + 1 for r in range(11)]),
        ("F2, 2*3^r-1", f2, [2 * 3**r - 1 for r in range(11)]),
    ]
    for label, table, want in checks:
        good = list(table.counts) == want
        ok = ok and good
        lines.append(f"{label}: {'exact match' if good else 'MISMATCH ' + str(table.counts)}")
    hgens = [("a", algebra.HEIS_A), ("b", algebra.HEIS_B)]
    h = analysis.growth(HeisenbergGroup(), hgens, 10)
    exponent = analysis.growth_exponent_estimate(h)
    good = 3.5 <= exponent <= 4.5
    ok = ok and good
    lines.append(f"Heisenberg growth exponent at radius 10: {exponent:.3f} (target [3.5, 4.5])")
    return ok, lines


def _lemma_experiment(group, n_max):
    gens = standard_generators(group)
    ok = True
    lines = []
    for n in range(0, n_max + 1):
        good, evidence = analysis.lemma_growth_check(group, gens, n)
        ok = ok and good
        lines.append(
            f"n={n}: dissimilar >= {evidence['dissimilarity_lower_bound']} "
            f"vs growth(n//2) = {evidence['growth_at_half']} -> {good}"
        )
    return ok, lines


def _run_theorem_probe():
    spec = CONSTRUCTIONS["wp-heis"]
    machine = spec.build()
    report = analysis.theorem_growth_probe(machine, range(2, 17), spec.budget, machine_name="wp-heis")
    lines = report.lines()

    # polynomial boundedness: log-log fit of the configuration column over n=2..14
    slope = analysis.log_log_slope([(r.n, r.configurations) for r in report.rows if 2 <= r.n <= 14])
    lines.append(f"configuration-count fit exponent over n=2..14: {slope:.2f} (must be <= 5)")

    crossing = report.crossing
    ok = slope <= 5 and crossing is not None and crossing <= 16
    lines.append(f"demand permanently exceeds configurations from n={crossing} (must be <= 16)")
    return ok, lines


def _run_dedup_soundness():
    ok = True
    lines = []
    for name, spec in sorted(CONSTRUCTIONS.items()):
        machine = spec.build()
        disagreements = 0
        checked = 0
        for word in all_words(machine.alphabet, 6):
            checked += 1
            pruned = accepts(machine, word, spec.budget, dedup=True).verdict
            unpruned = accepts(machine, word, spec.budget, dedup=False).verdict
            if pruned != unpruned:
                disagreements += 1
        ok = ok and disagreements == 0
        lines.append(f"{name}: {checked} words, {disagreements} verdict disagreements")
    return ok, lines


def _run_corpus_roundtrip():
    directory = corpus_dir()
    ok = True
    lines = [f"corpus: {directory}"]
    names = sorted(f for f in os.listdir(directory) if f.endswith(".efa"))
    if not names:
        return False, lines + ["no .efa files found"]
    for fname in names:
        with open(os.path.join(directory, fname), "r", encoding="utf-8") as fh:
            text = fh.read()
        canonical = model.serialize_efa(model.parse_efa(text))
        fixpoint = model.serialize_efa(model.parse_efa(canonical)) == canonical
        fresh = canonical == text
        ok = ok and fixpoint and fresh
        lines.append(f"{fname}: canonical fixpoint={fixpoint}, file is canonical={fresh}")
    return ok, lines


EXPERIMENTS = {
    e.experiment_id: e
    for e in [
        Experiment("upow-equiv-16", 1, "UPOW machine vs oracle, exhaustive to length 16", partial(_equiv_experiment, "upow", 16)),
        Experiment("oddpow-equiv-32", 2, "odd-power machine vs oracle, exhaustive to length 32", partial(_equiv_experiment, "oddpow", 32)),
        Experiment("oddpow-traces-10", 2, "odd-power proof register traces, symbolic x <= 10", _run_oddpow_traces),
        Experiment("mult-equiv-9", 3, "MULT machine vs oracle over the ternary alphabet to length 9", partial(_equiv_experiment, "mult", 9)),
        Experiment("composite-equiv-30", 3, "COMPOSITE machine vs oracle, unary to length 30", partial(_equiv_experiment, "composite", 30)),
        Experiment("multiple-equiv-12", 3, "MULTIPLE machine vs oracle, binary to length 12", partial(_equiv_experiment, "multiple", 12)),
        Experiment("algebra-identities", 4, "BS relation, Heisenberg law vs matrices, register determinants", _run_algebra_identities),
        Experiment("sanov-faithful-12", 5, "Sanov embedding identity-free on nonempty reduced words to length 12", _run_sanov_faithful),
        Experiment("qplus-transform-10", 6, "Q+ to SL(2,Q) transform preserves the language to length 10", _run_qplus_transform),
        Experiment("growth-tables-10", 7, "growth tables for Z, Z^2, F2 exact; Heisenberg exponent", _run_growth_tables),
        Experiment("lemma-growth-z-8", 8, "dissimilarity lower bound meets growth for Z, n <= 8", partial(_lemma_experiment, FreeAbelian(1), 8)),
        Experiment("lemma-growth-z2-6", 8, "dissimilarity lower bound meets growth for Z^2, n <= 6", partial(_lemma_experiment, FreeAbelian(2), 6)),
        Experiment("lemma-growth-f2-6", 8, "dissimilarity lower bound meets growth for F2, n <= 6", partial(_lemma_experiment, FreeGroup(2), 6)),
        Experiment("lemma-growth-heis-6", 8, "dissimilarity lower bound meets growth for Heisenberg, n <= 6", partial(_lemma_experiment, HeisenbergGroup(), 6)),
        Experiment("theorem-growth-probe-h", 9, "configuration counts vs free-group demand for the Heisenberg word problem", _run_theorem_probe),
        Experiment("dedup-soundness-6", 10, "pruned vs unpruned verdicts agree on all corpus machines to length 6", _run_dedup_soundness),
        Experiment("corpus-roundtrip", 11, "parse/serialize canonical fixpoint on every corpus file", _run_corpus_roundtrip),
    ]
}


def run_experiment(experiment_id):
    if experiment_id not in EXPERIMENTS:
        raise GramataError(f"unknown experiment {experiment_id!r}")
    exp = EXPERIMENTS[experiment_id]
    start = time.monotonic()
    passed, lines = exp.run()
    return ExperimentResult(experiment_id, passed, time.monotonic() - start, lines)


def run_all():
    order = sorted(EXPERIMENTS.values(), key=lambda e: (e.criterion, e.experiment_id))
    return [run_experiment(e.experiment_id) for e in order]
