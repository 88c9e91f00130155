"""Command-line harness over the library.

Exit codes: 0 pass/accept, 1 semantic failure (reject, mismatch, failed
criterion), 2 undecided (budget exhausted), 3 usage or parse errors.
Every command prints human-readable text by default and a single JSON
document under --json.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, constructions, experiments, model, simulate
from .algebra import parse_count, parse_group_compact
from .errors import GramataError, InstanceTooLarge
from .simulate import Verdict, format_word, tokenize_word

_VERDICT_EXIT = {Verdict.ACCEPT: 0, Verdict.REJECT: 1, Verdict.BUDGET_EXHAUSTED: 2}


def _policy_from_args(args):
    if args.budget is not None:
        return simulate.constant_policy(args.budget)
    if args.budget_policy is None:
        return simulate.default_policy
    return constructions.construction_budget(args.budget_policy)


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in text_lines:
            print(line)


def _certificate_steps(group, result):
    """The accepting path, one step per transition, each with the register
    after it, as the certificate check replayed them."""
    return [
        {
            "source": t.source,
            "symbol": t.symbol if t.symbol is not None else model.EPSILON_TOKEN,
            "target": t.target,
            "register": group.format_element(t.register),
            "after": group.format_element(reg),
        }
        for t, reg in zip(result.certificate, result.registers)
    ]


def _cmd_run(args):
    machine = model.load_efa(args.file)
    word = tokenize_word(args.word, machine.alphabet)
    result = simulate.accepts(machine, word, _policy_from_args(args))
    stats = result.stats
    steps = None if result.certificate is None else _certificate_steps(machine.group, result)
    payload = {
        "word": format_word(word),
        "verdict": str(result.verdict),
        "stats": {
            "expanded": stats.expanded,
            "max_depth": stats.max_depth,
            "accept_depth": stats.accept_depth,
        },
        "certificate": steps,
    }
    lines = [
        f"{result.verdict}",
        f"expanded={stats.expanded} max_depth={stats.max_depth} accept_depth={stats.accept_depth}",
    ]
    lines.extend("\t".join(step.values()) for step in steps or ())
    _emit(args, payload, lines)
    return _VERDICT_EXIT[result.verdict]


def _check_sweep_size(alphabet, max_len):
    """InstanceTooLarge unless the words of length <= max_len, which a sweep
    decides one by one and enum may keep, number at most mem_guard()."""
    guard = simulate.mem_guard()
    k = len(alphabet)
    if k == 1:
        words = max_len + 1
    else:
        # the sum of k^l, added up only until it passes the guard
        words, layer = 0, 1
        for _ in range(max_len + 1):
            words += layer
            if words > guard:
                break
            layer *= k
    if words > guard:
        raise InstanceTooLarge(
            f"the words up to length {max_len} over {k} symbols number more than the guard {guard}"
        )


def _cmd_enum(args):
    machine = model.load_efa(args.file)
    _check_sweep_size(machine.alphabet, args.max_len)
    result = simulate.enumerate_words(machine, args.max_len, _policy_from_args(args))
    payload = {
        "words": [format_word(w) for w in result.words],
        "budget_exhausted": [format_word(w) for w in result.budget_exhausted],
    }
    lines = [format_word(w) for w in result.words]
    if result.budget_exhausted and not args.json:
        print(f"warning: {len(result.budget_exhausted)} undecided words", file=sys.stderr)
    _emit(args, payload, lines)
    return 2 if result.budget_exhausted else 0


def _cmd_check(args):
    machine = model.load_efa(args.file)
    oracle = constructions.oracle(args.oracle)
    _check_sweep_size(machine.alphabet, args.max_len)
    report = simulate.equiv_check(
        machine,
        oracle,
        machine.alphabet,
        args.max_len,
        _policy_from_args(args),
        name=args.file,
    )
    payload = {
        "machine": args.file,
        "oracle": oracle.name,
        "max_len": args.max_len,
        "checked": report.checked,
        "passed": report.passed,
        "mismatches": [
            {"word": format_word(w), "expected": e, "got": str(v)} for w, e, v in report.mismatches
        ],
        "budget_exhausted": [format_word(w) for w in report.budget_exhausted],
    }
    _emit(args, payload, report.lines())
    if report.mismatches:
        return 1
    if report.budget_exhausted:
        return 2
    return 0


def _parse_gens(group, text):
    gens = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        name, _, literal = part.partition("=")
        if not literal:
            raise GramataError(f"generator needs the form name=element: {part!r}")
        gens.append((name.strip(), group.parse_element(literal.strip())))
    if not gens:
        raise GramataError("empty generator list")
    return gens


def _cmd_growth(args):
    group = parse_group_compact(args.group)
    gens = _parse_gens(group, args.gens) if args.gens else constructions.standard_generators(group)
    table = analysis.growth(group, gens, args.radius)
    payload = {"group": args.group, "radii": list(range(args.radius + 1)), "counts": list(table.counts)}
    if table.radius >= 3:
        payload["exponent_estimate"] = analysis.growth_exponent_estimate(table)
    _emit(args, payload, ["\t".join(str(c) for c in table.counts)])
    return 0


def _cmd_dissim(args):
    oracle = constructions.oracle(args.oracle)
    report = analysis.dissimilarity_exact(oracle, oracle.alphabet, args.max_len)
    payload = {
        "oracle": oracle.name,
        "n": report.n,
        "exact": report.exact,
        "lower_bound": report.lower_bound,
        "method": report.method,
        "witnesses": [format_word(w) for w in report.witnesses],
    }
    _emit(
        args,
        payload,
        report.lines() + ["witnesses: " + " ".join(format_word(w) for w in report.witnesses)],
    )
    return 0


_PROBE_MACHINES = {
    "theorem-growth-probe-h": "wp-heis",
    "theorem-growth-probe-f2": "wp-f2",
}


def _cmd_probe(args):
    if args.experiment not in _PROBE_MACHINES:
        raise GramataError(
            f"unknown probe {args.experiment!r} (choose from {sorted(_PROBE_MACHINES)})"
        )
    name = _PROBE_MACHINES[args.experiment]
    spec = constructions.CONSTRUCTIONS[name]
    report = analysis.theorem_growth_probe(
        spec.build(), range(2, args.max_len + 1), spec.budget, machine_name=name
    )
    payload = {
        "machine": name,
        "rows": [
            {"n": r.n, "configurations": r.configurations, "demand": r.demand, "exceeded": r.exceeded}
            for r in report.rows
        ],
        "crossing": report.crossing,
    }
    _emit(args, payload, report.lines())
    return 0


def _cmd_paper(args):
    if not args.all and not args.experiment:
        raise GramataError("paper needs --experiment ID or --all")
    if args.all:
        results = experiments.run_all()
    else:
        results = [experiments.run_experiment(args.experiment)]
    payload = {
        "results": [
            {
                "id": r.experiment_id,
                "criterion": experiments.EXPERIMENTS[r.experiment_id].criterion,
                "passed": r.passed,
                "seconds": round(r.seconds, 3),
                "detail": r.lines,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    lines = []
    for r in results:
        lines.extend(r.render() if not r.passed else r.render()[:1])
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    _emit(args, payload, lines)
    return 0 if all(r.passed for r in results) else 1


def _cmd_corpus(args):
    written = constructions.emit_corpus(args.dir)
    _emit(args, {"written": written}, written)
    return 0


def _int_at_least(low):
    """The argparse type of an integer flag: a count below low, or no count, is a usage error (exit 3)."""

    def integer(text):
        try:
            return parse_count(text, low, "the value")
        except GramataError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return integer


def build_parser():
    parser = argparse.ArgumentParser(prog="gramata", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=True):
        p.add_argument("--json", action="store_true", help="emit a single JSON document")
        if budget:
            # one budget per run: a constant or a policy, never both. No
            # string default: argparse does not count a flag as given when
            # its value is the default object, as an interned 'default' is
            group = p.add_mutually_exclusive_group()
            group.add_argument("--budget", type=_int_at_least(1), default=None, help="constant depth budget")
            group.add_argument(
                "--budget-policy",
                default=None,
                help="'default' or a construction name with a shipped budget",
            )

    p = sub.add_parser("run", help="run a machine on one word")
    p.add_argument("file")
    p.add_argument("word", help=f"input word; {model.EMPTY_WORD_TOKEN} or '' for the empty word")
    common(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("enum", help="enumerate accepted words")
    p.add_argument("file")
    p.add_argument("--max-len", type=_int_at_least(0), required=True)
    common(p)
    p.set_defaults(fn=_cmd_enum)

    p = sub.add_parser("check", help="compare a machine against an oracle")
    p.add_argument("file")
    p.add_argument("--oracle", required=True, help=", ".join(constructions.oracle_names()))
    p.add_argument("--max-len", type=_int_at_least(0), required=True)
    common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("growth", help="Cayley-graph ball sizes")
    p.add_argument("--group", required=True, help="free:2, zk:3, qplus, matq:2:det1, heis, prod(...)")
    p.add_argument("--gens", default=None, help="name=element;name=element (default: standard set)")
    p.add_argument("--radius", type=_int_at_least(0), required=True)
    common(p, budget=False)
    p.set_defaults(fn=_cmd_growth)

    p = sub.add_parser("dissim", help="exact dissimilarity count of an oracle language")
    p.add_argument("--oracle", required=True)
    p.add_argument("--max-len", type=_int_at_least(0), required=True)
    common(p, budget=False)
    p.set_defaults(fn=_cmd_dissim)

    p = sub.add_parser("probe", help="configuration-count vs growth-demand table")
    p.add_argument("--experiment", required=True, help=", ".join(sorted(_PROBE_MACHINES)))
    p.add_argument("--max-len", type=_int_at_least(2), default=16)
    common(p, budget=False)
    p.set_defaults(fn=_cmd_probe)

    p = sub.add_parser("paper", help="run acceptance experiments by identifier")
    p.add_argument("--experiment", default=None, help=", ".join(sorted(experiments.EXPERIMENTS)))
    p.add_argument("--all", action="store_true")
    common(p, budget=False)
    p.set_defaults(fn=_cmd_paper)

    p = sub.add_parser("corpus", help="emit every construction's .efa file")
    p.add_argument("--dir", default="corpus")
    common(p, budget=False)
    p.set_defaults(fn=_cmd_corpus)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; remap to 3
        return 3 if exc.code == 2 else exc.code
    try:
        # a malformed GRAMATA_MEM_GUARD is refused whether or not the command searches
        simulate.mem_guard()
        return args.fn(args)
    except GramataError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except MemoryError:
        # the last resort past every guard: a message, not a traceback
        print("error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
