"""The benchmark's set-up, its four workloads and the checks on their outputs.

Each workload is a fixed job run by one closed-loop caller: the next call
into gramata is issued only after the previous one has returned. A job
calls pause() before each of its operations, which the caller uses to run
untimed work in between, and returns a Tally of the operations it attempted, the ones that failed
(raised, came back BudgetExhausted under a shipped policy, or gave a wrong
output) and the work it completed.

Why these four (see perfbench/README.md for the full rationale):
- sweep-wide: many shallow searches, dominated by per-word set-up and
  shared prefixes;
- sweep-deep: few deep searches, dominated by register arithmetic;
- dedup-crosscheck: the unpruned DFS that no other workload runs;
- cayley: the analysis layer, which fills hash sets with distinct group
  elements and never calls accepts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from gramata import algebra, analysis, cli, constructions, model, simulate
from gramata.simulate import Verdict, all_words

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus")

# the fixed job of every workload; smoke.py swaps in toy sizes
SIZES = {
    "sweep-wide": {
        "equiv": [("mult", 9), ("multiple", 12), ("wp-f2", 6)],
        "cli": [("anbncn", 9)],
        "decide": 72700,  # every word once
    },
    "sweep-deep": {
        "equiv": [("upow", 24), ("oddpow", 32), ("composite", 30)],
        "cli": [],
        "decide": 178,  # every word twice
    },
    "dedup-crosscheck": {"max_len": 5, "decide": 11694},  # every word once
    "cayley": {
        "growth": [("f2", 10), ("heis", 30), ("sanov", 8), ("z3", 20)],
        "probe": 16,
        "lemma": 8,
        "decide": 4000,
        "decide_len": 8,  # the probe's longest prefix: n // 2 for n <= 16
    },
    # the --workers evidence: one sweep at workers=1 and at workers=2
    "pool": ("mult", 9),
}

WORKLOADS = ("sweep-wide", "sweep-deep", "dedup-crosscheck", "cayley")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    verdicts: int = 0  # membership verdicts produced by the job
    elements: int = 0  # group elements and configurations produced by the job
    errors: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)  # (machine, word) -> Verdict

    def fail(self, what, count=1):
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(what)


@dataclass
class State:
    machines: dict  # corpus name -> EFA
    policies: dict  # corpus name -> shipped budget policy
    oracles: dict  # corpus name -> NamedOracle, for the constructions that have one
    groups: dict  # cayley label -> (group, generators)


def setup():
    """Load and validate every corpus machine, build the oracles and the
    generating sets. Raises on any problem: a broken set-up is not a result."""
    machines = {}
    for fname in sorted(os.listdir(CORPUS)):
        if not fname.endswith(".efa"):
            continue
        machine = model.load_efa(os.path.join(CORPUS, fname))
        diags = model.validate(machine)
        if diags:
            raise RuntimeError(f"{fname}: " + "; ".join(d.render() for d in diags))
        machines[fname[: -len(".efa")]] = machine
    specs = constructions.CONSTRUCTIONS
    if sorted(machines) != sorted(specs):
        raise RuntimeError(f"corpus holds {sorted(machines)}, expected {sorted(specs)}")
    policies = {name: specs[name].budget for name in machines}
    oracles = {
        name: constructions.oracle(specs[name].oracle_name)
        for name in machines
        if specs[name].oracle_name is not None
    }
    std = constructions.standard_generators
    groups = {
        "f2": (algebra.FreeGroup(2), std(algebra.FreeGroup(2))),
        "heis": (algebra.HeisenbergGroup(), [("a", algebra.HEIS_A), ("b", algebra.HEIS_B)]),
        "sanov": (
            algebra.MatrixGroup(2, "Q", algebra.DET_ONE),
            [("A", algebra.SANOV_A), ("B", algebra.SANOV_B)],
        ),
        "z3": (algebra.FreeAbelian(3), std(algebra.FreeAbelian(3))),
    }
    return State(machines, policies, oracles, groups)


def word_count(alphabet_size, max_len):
    return sum(alphabet_size**k for k in range(max_len + 1))


# --- jobs ---------------------------------------------------------------------


def _equiv(st, tally, name, max_len):
    oracle = st.oracles[name]
    expected = word_count(len(oracle.alphabet), max_len)
    tally.attempted += expected
    try:
        report = simulate.equiv_check(
            st.machines[name], oracle, oracle.alphabet, max_len, st.policies[name], name=name
        )
    except Exception as err:  # a failed operation, reported rather than fatal
        tally.fail(f"{name}: {err!r}", expected)
        return
    bad = len(report.mismatches) + len(report.budget_exhausted)
    if report.checked != expected:
        bad = expected
    if bad:
        tally.fail(f"{name}: {len(report.mismatches)} mismatches, {len(report.budget_exhausted)} undecided", bad)
    tally.verdicts += report.checked


def _cli_check(st, tally, name, max_len):
    """The same sweep through the command line, in process."""
    expected = word_count(len(st.machines[name].alphabet), max_len)
    tally.attempted += expected
    argv = [
        "check",
        os.path.join(CORPUS, f"{name}.efa"),
        "--oracle",
        st.oracles[name].name,
        "--max-len",
        str(max_len),
        "--budget-policy",
        name,
        "--json",
    ]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        payload = json.loads(out.getvalue())
    except Exception as err:
        tally.fail(f"cli check {name}: {err!r}", expected)
        return
    if code != 0 or not payload["passed"] or payload["budget_exhausted"] or payload["checked"] != expected:
        tally.fail(f"cli check {name}: exit {code}", expected)
        return
    tally.verdicts += payload["checked"]


def _nothing():
    pass


def job_sweep(st, size, pause=_nothing):
    tally = Tally()
    for name, max_len in size["equiv"]:
        pause()
        _equiv(st, tally, name, max_len)
    for name, max_len in size["cli"]:
        pause()
        _cli_check(st, tally, name, max_len)
    return tally


def job_dedup(st, size, pause=_nothing):
    """Every corpus machine on every word up to max_len, through the pruned
    BFS and the unpruned DFS; the two verdicts must agree."""
    tally = Tally()
    for name in sorted(st.machines):
        pause()
        machine, policy = st.machines[name], st.policies[name]
        for word in all_words(machine.alphabet, size["max_len"]):
            tally.attempted += 1
            try:
                pruned = simulate.accepts(machine, word, policy, dedup=True).verdict
                unpruned = simulate.accepts(machine, word, policy, dedup=False).verdict
            except Exception as err:
                tally.fail(f"{name} {word}: {err!r}")
                continue
            tally.verdicts += 2
            if pruned is not unpruned or pruned is Verdict.BUDGET_EXHAUSTED:
                tally.fail(f"{name} {word}: pruned {pruned}, unpruned {unpruned}")
            tally.reference[(name, word)] = pruned
    return tally


def expected_ball(label, r):
    """Closed-form ball sizes where they are known, else None."""
    if label in ("f2", "sanov"):  # Sanov's embedding is faithful on F2
        return 2 * 3**r - 1
    if label == "z3":  # |B(r)| in Z^d is sum_k 2^k C(d,k) C(r,k): 2r+1, 2r^2+2r+1, ...
        return sum(2**k * math.comb(3, k) * math.comb(r, k) for k in range(4))
    return None


def job_cayley(st, size, pause=_nothing):
    tally = Tally()

    def op(what, fn):
        pause()
        tally.attempted += 1
        try:
            problem = fn()
        except Exception as err:
            problem = repr(err)
        if problem:
            tally.fail(f"{what}: {problem}")

    def ball(label, r):
        group, gens = st.groups[label]
        counts = analysis.growth(group, gens, r).counts
        tally.elements += counts[-1]
        want = expected_ball(label, r)
        if want is not None and counts[-1] != want:
            return f"ball {counts[-1]} != {want}"
        if label == "heis" and r >= 3:
            exponent = analysis.growth_exponent_estimate(analysis.GrowthTable(counts))
            if not 3.5 <= exponent <= 4.5:
                return f"exponent {exponent:.3f} outside [3.5, 4.5]"
        return None

    def probe():
        n_max = size["probe"]
        report = analysis.theorem_growth_probe(
            st.machines["wp-heis"], range(2, n_max + 1), st.policies["wp-heis"], machine_name="wp-heis"
        )
        last = report.rows[-1]
        tally.elements += last.configurations + last.demand
        if report.crossing is None or report.crossing > n_max:
            return f"crossing {report.crossing} not <= {n_max}"
        return None

    def lemma():
        n = size["lemma"]
        ok, ev = analysis.lemma_growth_check(*st.groups["f2"], n)
        witnesses = ev["witnesses_verified"]
        tally.elements += ev["dissimilarity_lower_bound"] + ev["growth_at_half"]
        # two word-problem membership verdicts per witness pair
        tally.verdicts += witnesses * (witnesses - 1)
        return None if ok else f"lemma failed: {ev}"

    for label, r in size["growth"]:
        op(f"growth {label} r={r}", lambda: ball(label, r))
    op("probe wp-heis", probe)
    op("lemma f2", lemma)
    return tally


def job_for(workload):
    return {
        "sweep-wide": job_sweep,
        "sweep-deep": job_sweep,
        "dedup-crosscheck": job_dedup,
        "cayley": job_cayley,
    }[workload]


# --- the decide sample ----------------------------------------------------------


def _word_at(alphabet, index):
    """The index-th word of all_words(alphabet, ...): length, then lex order."""
    letters = sorted(alphabet)
    k = len(letters)
    length = 0
    while index >= k**length:
        index -= k**length
        length += 1
    word = []
    for _ in range(length):
        index, digit = divmod(index, k)
        word.append(letters[digit])
    return tuple(reversed(word))


def decide_sample(st, workload, size, seed, reference):
    """Seeded (machine, word, expected membership) triples for the latency
    sample of single accepts calls.

    The sample is systematic: every (total / k)-th word of the workload's
    words in machine, length and lex order, from a seeded offset, then
    shuffled. Each seed draws other words, but the mix of machines and
    lengths, and so of word costs, stays the same."""
    rng = random.Random(seed)
    if workload == "cayley":
        # the inputs the probe's prefixes range over
        segments = [("wp-heis", size["decide_len"])]
    elif workload == "dedup-crosscheck":
        segments = [(name, size["max_len"]) for name in sorted(st.machines)]
    else:
        segments = size["equiv"] + size["cli"]
    counts = [word_count(len(st.machines[name].alphabet), n) for name, n in segments]
    k = size["decide"]
    step = sum(counts) / k
    offset = rng.random() * step
    picks = []
    for i in range(k):
        index = int(offset + i * step)
        for (name, _), count in zip(segments, counts):
            if index < count:
                picks.append((name, _word_at(st.machines[name].alphabet, index)))
                break
            index -= count
    rng.shuffle(picks)
    if workload == "dedup-crosscheck":
        return [(name, word, reference[(name, word)] is Verdict.ACCEPT) for name, word in picks]
    return [(name, word, bool(st.oracles[name].member(word))) for name, word in picks]


def decide_one(st, item, tally):
    """Time one accepts call and check its verdict. Returns (latency in
    seconds, configurations expanded), or None if it raised."""
    name, word, expected = item
    tally.attempted += 1
    start = time.perf_counter()
    try:
        result = simulate.accepts(st.machines[name], word, st.policies[name])
    except Exception as err:
        tally.fail(f"decide {name} {word}: {err!r}")
        return None
    latency = time.perf_counter() - start
    if result.verdict is Verdict.BUDGET_EXHAUSTED or (result.verdict is Verdict.ACCEPT) != expected:
        tally.fail(f"decide {name} {word}: {result.verdict}, expected member={expected}")
    return latency, result.stats.expanded


# --- layer probes run without tracing ---------------------------------------------


def _random_mat2(rng):
    """A determinant-1 rational 2x2 matrix: four shears with entries p/q,
    |p| <= 9 and 1 <= q <= 9."""
    m = algebra.Matrix.identity(2)
    for i in range(4):
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        m = m * algebra.Matrix(((1, s), (0, 1)) if i % 2 else ((1, 0), (s, 1)))
    return m


def _random_free(rng, length=8):
    """A reduced rank-2 word of the given length."""
    letters = []
    while len(letters) < length:
        letter = (rng.randrange(2), rng.choice((1, -1)))
        if letters and letters[-1] == (letter[0], -letter[1]):
            continue
        letters.append(letter)
    return algebra.Word(tuple(letters))


# group key -> (group, seeded element generator); sizes are stated in README.md
MICRO_GROUPS = {
    "heis": (
        algebra.HeisenbergGroup(),
        lambda rng: algebra.Heis(*(rng.randint(-1000, 1000) for _ in range(3))),
    ),
    "free": (algebra.FreeGroup(2), _random_free),
    "zk": (algebra.FreeAbelian(2), lambda rng: (rng.randint(-1000, 1000), rng.randint(-1000, 1000))),
    "qplus": (
        algebra.PositiveRationals(),
        lambda rng: Fraction(rng.randint(1, 1000), rng.randint(1, 1000)),
    ),
    "matq2": (algebra.MatrixGroup(2, "Q", algebra.DET_ONE), _random_mat2),
    "matq4": (
        algebra.MatrixGroup(4, "Q", algebra.DET_ONE),
        lambda rng: algebra.pair_embed(_random_mat2(rng), _random_mat2(rng)),
    ),
}


def micro_mul(seed, pairs=256, rounds=5, min_seconds=0.04):
    """Nanoseconds per group.mul on seeded element pairs: min over rounds of
    a timed pass repeated until it lasts min_seconds."""
    out = {}
    for key, (group, make) in MICRO_GROUPS.items():
        rng = random.Random(f"{seed}:{key}")
        items = [(make(rng), make(rng)) for _ in range(pairs)]
        for g, h in items:
            group.check(g)
            group.check(h)
        mul = group.mul
        repeat = 1
        while True:
            start = time.perf_counter_ns()
            for _ in range(repeat):
                for g, h in items:
                    mul(g, h)
            if time.perf_counter_ns() - start >= min_seconds * 1e9:
                break
            repeat *= 2
        best = math.inf
        for _ in range(rounds):
            start = time.perf_counter_ns()
            for _ in range(repeat):
                for g, h in items:
                    mul(g, h)
            best = min(best, (time.perf_counter_ns() - start) / (repeat * pairs))
        out[key] = best
    return out


def pool_speedup(st, tally, name, max_len):
    """One sweep at workers=1 and at workers=2 (never more than the CPUs this
    process may use); the reports must agree. Returns t(1) / t(workers)."""
    workers = min(2, len(os.sched_getaffinity(0)))
    oracle = st.oracles[name]
    seconds, reports = [], []
    for n in (1, workers):
        tally.attempted += 1
        start = time.perf_counter()
        report = simulate.equiv_check(
            st.machines[name], oracle, oracle.alphabet, max_len, st.policies[name], workers=n, name=name
        )
        seconds.append(time.perf_counter() - start)
        reports.append((report.checked, report.mismatches, report.budget_exhausted))
        if not report.clean:
            tally.fail(f"pool sweep workers={n}: not clean")
    if reports[0] != reports[1]:
        tally.fail("pool sweep: workers=1 and workers=2 disagree")
    return seconds[0] / seconds[1]
