"""Command-line surface: scoring, searching, padding, verifying, generating.

A run reads its command line and input files alone, never the environment;
all randomness flows from --seed (default 0) and no timestamp reaches the
output unless --timing is given, so identical invocations produce identical
bytes. Exit codes: 0 success or verifier pass, 1 usage or input error,
2 verifier fail, 3 verifier inconclusive.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from parsiml import characters, likelihood, mlopt, parsimony, reduction, trees
from parsiml.reduction import csv_text, format_cell, jsonable

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {"pass": EXIT_OK, "fail": EXIT_FAIL,
                 "inconclusive": EXIT_INCONCLUSIVE}


class UsageError(Exception):
    """Bad invocation or unreadable/malformed input; exits 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here reserves 2 for
    # verifier failures and uses 1 for anything wrong with the invocation.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _given(args, *names) -> dict:
    """The given options among ``names``; the library owns the defaults."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def build_parser() -> _Parser:
    # Global flags live on a parent parser shared with every subcommand so
    # they are accepted on either side of the subcommand name. Abbreviation
    # is off: with it, "--n" would prefix-clash with "--n-max".
    # SUPPRESS keeps the subparser pass from clobbering values already
    # parsed by the top-level parser with defaults.
    supp = argparse.SUPPRESS
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default=supp, help="output format (default text)")
    common.add_argument("--out", metavar="FILE", default=supp,
                        help="write output to FILE instead of stdout")
    common.add_argument("--seed", type=int, default=supp,
                        help="seed for all randomness (default 0)")
    common.add_argument("--n-max", type=int, dest="cap", metavar="N_MAX",
                        default=supp,
                        help="leaf cap for exhaustive enumeration")
    common.add_argument("--m-min", type=int, default=supp,
                        help="instance size below which failed size-conditioned "
                             "bounds grade as inconclusive")
    common.add_argument("--timing", action="store_true", default=supp,
                        help="include wall-clock runtime in reports "
                             "(breaks byte-for-byte reproducibility)")

    parser = _Parser(prog="parsiml", description=__doc__.splitlines()[0],
                     parents=[common], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, **kwargs):
        return sub.add_parser(name, parents=[common], allow_abbrev=False,
                              **kwargs)

    gen = subcommand("gen", help="generate a seeded random matrix")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--compressed", action="store_true",
                     help="emit distinct patterns with a counts line")

    pad = subcommand("pad", help="append the constant-site padding block")
    pad.add_argument("--matrix", required=True)
    group = pad.add_mutually_exclusive_group(required=True)
    group.add_argument("--epsilon", type=float,
                       help="pad with ceil(M^(1/epsilon)) all-zero columns")
    group.add_argument("--nc", type=int,
                       help="pad with an explicit number of all-zero columns")

    score_mp = subcommand("score-mp", help="flip score of a matrix on a tree")
    score_mp.add_argument("--tree", required=True)
    score_mp.add_argument("--matrix", required=True)

    score_ml = subcommand("score-ml",
                          help="dataset cost for fixed tree and probabilities")
    score_ml.add_argument("--tree", required=True)
    score_ml.add_argument("--matrix", required=True)
    score_ml.add_argument("--probs", required=True,
                          help="sidecar file with one 'u v p' line per edge")

    search_mp = subcommand("search-mp",
                           help="exact flip-score search (branch and bound)")
    search_mp.add_argument("--matrix", required=True)

    search_ml = subcommand("search-ml", help="exhaustive likelihood search")
    search_ml.add_argument("--matrix", required=True)
    search_ml.add_argument("--restarts", type=int)

    enum = subcommand("enumerate", help="list all binary topologies")
    enum.add_argument("--n", type=int, required=True)

    verify = subcommand("verify", help="run one reduction check")
    verify.add_argument("check", choices=tuple(_VERIFY))
    verify.add_argument("--matrix", required=True)
    verify.add_argument("--tree", help="tree file (claim checks only)")
    verify.add_argument("--epsilon", type=float)
    verify.add_argument("--nc", type=int,
                        help="pad with an explicit number of all-zero columns "
                             "(claim1 and claim3 still read --epsilon)")
    verify.add_argument("--trials", type=int)
    verify.add_argument("--restarts", type=int)
    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_payload(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        _emit(args, json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n")
    elif args.format == "csv":
        keys = sorted(payload)
        # a list cell is written as its JSON text
        cells = [json.dumps(jsonable(payload[key]))
                 if isinstance(payload[key], list) else format_cell(payload[key])
                 for key in keys]
        _emit(args, csv_text(keys, cells))
    else:
        _emit(args, "\n".join(text_lines) + "\n")


def _cmd_gen(args) -> int:
    matrix = characters.random_instance(args.n, args.k, args.seed)
    text = characters.write_matrix(matrix, compressed=args.compressed)
    _emit_payload(args, {"n": args.n, "k": args.k, "seed": args.seed,
                         "matrix": text},
                  text.splitlines())
    return EXIT_OK


def _padded(base, args):
    # --nc overrides epsilon: verify takes both, pad exactly one of them
    if args.nc is not None:
        return characters.pad_with_count(base, args.nc)
    if args.epsilon is None:
        raise UsageError(f"verify {args.check} requires --epsilon or --nc")
    return characters.pad_constant_sites(base, args.epsilon)


def _cmd_pad(args) -> int:
    base = characters.parse_matrix(_read(args.matrix))
    padded = _padded(base, args)
    text = characters.write_matrix(padded.padded, compressed=True)
    header = (f"# padded: M={padded.size} N_c={padded.pad_count} "
              f"epsilon={format_cell(padded.epsilon)}")
    _emit_payload(args, {"n": base.n, "k_base": base.k,
                         "k_padded": padded.padded.k,
                         "epsilon": padded.epsilon, "M": padded.size,
                         "N_c": padded.pad_count, "matrix": text},
                  [header] + text.splitlines())
    return EXIT_OK


def _cmd_score_mp(args) -> int:
    tree = trees.parse_newick(_read(args.tree))
    matrix = characters.parse_matrix(_read(args.matrix))
    score = parsimony.parsimony_score(tree, matrix)
    _emit_payload(args, {"score": score, "tree": trees.canonical_newick(tree),
                         "n": matrix.n, "k": matrix.k},
                  [f"l(X,T) = {score}"])
    return EXIT_OK


def _cmd_score_ml(args) -> int:
    tree = trees.parse_newick(_read(args.tree))
    matrix = characters.parse_matrix(_read(args.matrix))
    probs = likelihood.parse_probs(_read(args.probs), tree)
    value = likelihood.modified_loglik(tree, probs, matrix)
    _emit_payload(args, {"cost": value, "tree": trees.canonical_newick(tree),
                         "n": matrix.n, "k": matrix.k},
                  [f"cost = {format_cell(value)}"])
    return EXIT_OK


def _cmd_search_mp(args) -> int:
    matrix = characters.parse_matrix(_read(args.matrix))
    score, optima = parsimony.mp_search(matrix, **_given(args, "cap"))
    newicks = [trees.canonical_newick(t) for t in optima]
    _emit_payload(args, {"score": score, "optima": newicks,
                         "count": len(newicks)},
                  [f"score = {score}"] + newicks)
    return EXIT_OK


def _cmd_search_ml(args) -> int:
    matrix = characters.parse_matrix(_read(args.matrix))
    config = mlopt.OptimizerConfig(seed=args.seed, **_given(args, "restarts"))
    best, ties = mlopt.ml_search(matrix, config, **_given(args, "cap"))
    probs_lines = likelihood.write_probs(best.tree, best.probs).splitlines()
    payload = {"cost": best.value, "tree": trees.canonical_newick(best.tree),
               "converged": best.converged, "sweeps": best.sweeps,
               "probs": [[u, v, p] for (u, v), p in best.probs.items()],
               "ties": [trees.canonical_newick(t) for t in ties]}
    text = [f"cost = {format_cell(best.value)}",
            f"tree = {trees.canonical_newick(best.tree)}",
            f"converged = {best.converged}"] + probs_lines
    _emit_payload(args, payload, text)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    found = [trees.canonical_newick(t)
             for t in trees.enumerate_topologies(args.n, **_given(args, "cap"))]
    _emit_payload(args, {"n": args.n, "count": len(found),
                         "topologies": found}, found)
    return EXIT_OK


def _claim(verify, *keywords):
    def call(args, matrix):
        if not args.tree:
            raise UsageError(f"verify {args.check} requires --tree")
        reads = "epsilon" in keywords  # claim1 and claim3 need it beside --nc
        if reads and args.epsilon is None and args.nc is None:
            raise UsageError(f"verify {args.check} requires --epsilon")
        if args.nc is not None and reads == (args.epsilon is None):
            verb = "requires" if reads else "does not read"
            raise UsageError(
                f"verify {args.check} {verb} --epsilon beside --nc")
        tree = trees.parse_newick(_read(args.tree))
        return verify(_padded(matrix, args), tree, **_given(args, *keywords))
    return call


def _prop1(args, matrix):
    if args.epsilon is None:
        raise UsageError("verify prop1 requires --epsilon")
    config = mlopt.OptimizerConfig(seed=args.seed, **_given(args, "restarts"))
    return reduction.verify_prop1_chain(
        matrix, args.epsilon, config, **_given(args, "m_min", "cap"))


# Per check: the verify options it reads and the call it makes. The library
# owns every default, so an option the user did not give is not passed.
_CLAIM = ("tree", "epsilon", "nc")
_TRIALS = (*_CLAIM, "trials")
_VERIFY = {
    "claim1": (_CLAIM, _claim(reduction.verify_claim1, "epsilon", "m_min")),
    "claim2": (_TRIALS, _claim(reduction.verify_claim2, "trials", "seed")),
    "claim3": (_TRIALS, _claim(reduction.verify_claim3, "trials", "seed",
                               "epsilon", "m_min")),
    "prop1": (("epsilon", "restarts"), _prop1),
}


def _cmd_verify(args) -> int:
    matrix = characters.parse_matrix(_read(args.matrix))
    options, check = _VERIFY[args.check]
    for name in _given(args, "tree", "epsilon", "nc", "trials", "restarts"):
        if name not in options:
            raise UsageError(f"verify {args.check} does not read --{name}")
    started = time.perf_counter()
    report = check(args, matrix)
    if args.timing:
        report.runtime_ms = (time.perf_counter() - started) * 1000.0
    render = {"json": report.to_json, "csv": report.to_csv_row,
              "text": report.to_text}
    _emit(args, render[args.format]())
    return _VERDICT_EXIT[report.verdict]


_COMMANDS = {
    "gen": _cmd_gen,
    "pad": _cmd_pad,
    "score-mp": _cmd_score_mp,
    "score-ml": _cmd_score_ml,
    "search-mp": _cmd_search_mp,
    "search-ml": _cmd_search_ml,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
}


def run(argv=None) -> int:
    """Parse ``argv`` and execute one subcommand; returns the exit code."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    for flag, value in zip(argv, argv[1:]):
        # argparse files an unknown flag before the verb under extras and then
        # reads its value (any positional, "-2" too) as the verb; name the flag
        if flag in _COMMANDS or value in _COMMANDS:
            break
        if (flag.startswith("-") and parser._parse_optional(value) is None
                and flag.split("=")[0] not in parser._option_string_actions):
            parser.error(f"unrecognized arguments: {flag} {value}")
    parsed = vars(parser.parse_args(argv))
    # the shared flags' defaults under what was parsed (see build_parser);
    # None leaves --n-max and --m-min to the library's defaults
    args = argparse.Namespace(**dict(format="text", out=None, seed=0,
                                     timing=False, cap=None, m_min=None)
                              | parsed)
    try:
        if args.seed < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"parsiml: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv=None) -> None:
    raise SystemExit(run(argv))


if __name__ == "__main__":
    main()
