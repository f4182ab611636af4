"""Command-line entry points: run sweeps, verify invariants, solve fixed
points."""

import argparse
import json
import os
import re
import sys
from functools import cache

import numpy as np

from .analysis import SingularSystemError, compute_A_b, contraction_condition, \
    fixed_point, mspbe, system_builder
from .checks import verify_all
from .emphasis import DEFAULT_EPSILON_FLOOR, EmphasisKind, EmphasisSpec, \
    emphasis_abs_expected_td, init_emphasis_state, long_run_count_inverse
from .harness import DEFAULT_ALPHA_GRID, DEFAULT_LAMBDA_GRID, \
    ExperimentConfig, aggregate_all, check_csv_cells, emit, resolve_task, \
    run_experiment, select_best
from .learners import Algorithm, AlgoConfig
from .mrp import ChainStructureError, ConvergenceError, load_environment, \
    read_json


def parse_emphasis(text: str, epsilon_floor: float) -> EmphasisSpec:
    """Parse a compact emphasis spec: ``constant:2.0``, ``table:1,0.5,...``,
    ``count_inverse``, ``noise_prior`` or ``abs_expected_td``."""
    head, colon, param = str(text).partition(":")
    kind = EmphasisKind(head.strip().lower())

    def number(value: str) -> float:
        try:
            return float(value)
        except ValueError:
            raise ValueError(f"--emphasis {kind.value}: {value!r} is not a "
                             f"number") from None

    if kind is EmphasisKind.CONSTANT:
        value = number(param) if param else 1.0
        return EmphasisSpec(kind, constant=value, epsilon_floor=epsilon_floor)
    if kind is EmphasisKind.TABLE:
        if not param:
            raise ValueError("table emphasis needs comma-separated values")
        table = np.array([number(x) for x in param.split(",")])
        return EmphasisSpec(kind, table=table, epsilon_floor=epsilon_floor)
    if colon:
        raise ValueError(f"{kind.value} emphasis takes no parameter, not "
                         f"{param!r}")
    return EmphasisSpec(kind, epsilon_floor=epsilon_floor)


# argparse's own pattern has no exponent, so it read -1e-05 as a flag
NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-inf$",
                             re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtd",
        description="Emphasis-weighted TD prediction: sweeps, verification "
                    "and exact fixed points.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate learning curves")
    run.add_argument("--task", required=True,
                     help="RW5_LEFT/MIDDLE/RIGHT, RW5_TABULAR/INVERTED/"
                          "DEPENDENT, BOYAN13, NOISY10[:level]")
    run.add_argument("--algo", nargs="+", required=True,
                     choices=[a.value for a in Algorithm])
    run.add_argument("--lambda", dest="lambdas", nargs="+", type=float,
                     default=DEFAULT_LAMBDA_GRID)
    run.add_argument("--alpha", nargs="+", type=float,
                     default=DEFAULT_ALPHA_GRID)
    run.add_argument("--emphasis", default="constant:1")
    run.add_argument("--epsilon-floor", type=float,
                     default=DEFAULT_EPSILON_FLOOR)
    run.add_argument("--runs", type=int, default=50)
    run.add_argument("--steps", type=int, default=5000)
    run.add_argument("--eval-every", type=int, default=50)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", required=True)
    run.add_argument("--format", choices=["csv", "json"], default="csv")
    run.add_argument("--env-file", default=None,
                     help="JSON environment overriding the named task")
    run.add_argument("--aggregate", action="store_true",
                     help="emit per-step means and deviations instead of "
                          "raw curves")

    sweep = sub.add_parser("sweep", help="run an experiment config file")
    sweep.add_argument("--config", required=True)

    verify = sub.add_parser("verify", help="run the self-verification suite")
    verify.add_argument("--filter", default=None)
    verify.add_argument("--out", default=None)

    fp = sub.add_parser("fixed-point",
                        help="solve the expected-update fixed point")
    fp.add_argument("--task", required=True)
    fp.add_argument("--emphasis", default="constant:1")
    fp.add_argument("--epsilon-floor", type=float,
                    default=DEFAULT_EPSILON_FLOOR)
    fp.add_argument("--lambda", dest="lam", type=float, required=True)
    fp.add_argument("--kappa", type=float, default=None)
    for each in (parser, run, fp):  # values such as -1e-05 are no flags
        each._negative_number_matcher = NEGATIVE_NUMBER
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call and kept:
    building one costs about as much as a small fixed-point solve."""
    return build_parser()


def _cells(groups):
    """The cells of ``dtd run`` and ``dtd sweep``: an ``AlgoConfig`` per
    (algorithm, lambdas, alphas, emphasis) group."""
    return [AlgoConfig(name, lam, alpha, emphasis)
            for name, lambdas, alphas, emphasis in groups
            for lam in lambdas for alpha in alphas]


def _run_and_emit(config, out, fmt, aggregated, environment=None):
    """Simulate ``config`` and write its curves or aggregates to ``out``.
    A CSV field that would break its line, or an output path that is a
    directory, is refused before simulating; a run that ends with a
    non-finite MSPBE draws a warning."""
    if os.path.isdir(out):
        raise IsADirectoryError(f"output path {out!r} is a directory")
    if str(fmt).lower() == "csv":
        check_csv_cells(config.cells())
    table = run_experiment(config, environment=environment)
    diverged = table.diverged_runs()
    if diverged:
        cells = ", ".join(f"{algorithm} lambda={lam!r} alpha={alpha!r} "
                          f"{kind} ({n})" for (_, algorithm, lam, alpha, kind),
                          n in diverged.items())
        print(f"warning: {sum(diverged.values())} of "
              f"{len(table.run_starts())} runs ended with non-finite MSPBE: "
              f"{cells}", file=sys.stderr)
    if aggregated:
        emit(aggregate_all(table), out, fmt=fmt, kind="aggregate")
    else:
        emit(table, out, fmt=fmt, kind="curve")
    return table


def cmd_run(args) -> int:
    emphasis = parse_emphasis(args.emphasis, args.epsilon_floor)
    config = ExperimentConfig(
        task=args.task,
        algorithms=_cells((name, args.lambdas, args.alpha, emphasis)
                          for name in args.algo),
        runs=args.runs, steps=args.steps, eval_every=args.eval_every,
        base_seed=args.seed)
    environment = load_environment(args.env_file) if args.env_file else None
    table = _run_and_emit(config, args.out, args.format, args.aggregate,
                          environment)
    for key, best in sorted(select_best(table).items()):
        print(f"{key[0]} {key[1]}: best lambda={best.lam} alpha={best.alpha} "
              f"final_mspbe={best.score:.6f}")
    print(f"wrote {args.out}")
    return 0


_JSON_TYPES = {"a string": str, "an integer": int, "a list": list,
               "a number": (int, float), "true or false": bool}
SWEEP_KEYS = {"task": "a string", "runs": "an integer", "steps": "an integer",
              "eval_every": "an integer", "base_seed": "an integer",
              "out": "a string", "algorithms": "a list"}
SWEEP_ENTRY_KEYS = ("algorithm", "lambda", "alpha")


def _checked(value, kind: str, what: str):
    """``value``, if it is of the JSON type ``kind``; a bool is of no other."""
    if isinstance(value, bool) != (kind == "true or false") \
            or not isinstance(value, _JSON_TYPES[kind]):
        raise ValueError(f"{what} must be {kind}, not {value!r}")
    return value


def _require_keys(mapping, keys, where: str, optional=()) -> None:
    """Refuse a ``mapping`` that is no JSON object, lacks one of ``keys`` or
    holds a key that is neither in ``keys`` nor in ``optional``."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{where} must be a JSON object")
    for key in keys:
        if key not in mapping:
            raise ValueError(f"{where} is missing key {key!r}")
    for key in mapping:
        if key not in keys and key not in optional:
            raise ValueError(f"{where} has unknown key {key!r}")


def cmd_sweep(args) -> int:
    spec = read_json(args.config)
    _require_keys(spec, SWEEP_KEYS, "sweep config", ("format", "aggregate"))
    spec = {"format": "csv", "aggregate": False, **spec}
    for key, kind in {**SWEEP_KEYS, "format": "a string",
                      "aggregate": "true or false"}.items():
        _checked(spec[key], kind, f"sweep config {key!r}")
    if spec["format"].lower() not in ("csv", "json"):
        raise ValueError(f"sweep config 'format' must be csv or json, not "
                         f"{spec['format']!r}")
    groups = []
    for i, entry in enumerate(spec["algorithms"]):
        where = f"sweep config algorithms[{i}]"
        _require_keys(entry, SWEEP_ENTRY_KEYS, where, ("emphasis",))
        emphasis = entry.get("emphasis", {"kind": "constant"})
        where = f"{where}.emphasis"
        _require_keys(emphasis, ("kind",), where,
                      ("constant", "epsilon_floor", "table"))
        numbers = {key: emphasis[key] for key in ("constant", "epsilon_floor")
                   if key in emphasis}
        table = emphasis.get("table")
        if table is not None:
            _checked(table, "a list", f"{where} 'table'")
        try:
            weighting = EmphasisSpec(emphasis["kind"], table=table,
                                     **numbers)
        except ValueError as exc:
            raise ValueError(f"{where} {exc}") from None
        groups.append((entry["algorithm"], *(
            value if isinstance(value, list) else [value]
            for value in (entry["lambda"], entry["alpha"])), weighting))
    config = ExperimentConfig(task=spec["task"], algorithms=_cells(groups), **{
        k: spec[k] for k in ("runs", "steps", "eval_every", "base_seed")})
    _run_and_emit(config, spec["out"], spec["format"], spec["aggregate"])
    print(f"wrote {spec['out']}")
    return 0


def cmd_verify(args) -> int:
    results = verify_all(args.filter)
    if not results:
        raise ValueError(f"no check name contains {args.filter!r}")
    payload = [res.to_dict() for res in results]
    text = json.dumps(payload, indent=1, default=str)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    n_pass = sum(res.passed for res in results)
    slowest = sorted(results, key=lambda res: -res.seconds)[:3]
    print(f"{n_pass}/{len(results)} checks passed in "
          f"{sum(res.seconds for res in results):.1f} s; slowest: "
          + ", ".join(f"{res.check} {res.seconds:.2f} s" for res in slowest),
          file=sys.stderr)
    return 0 if n_pass == len(results) else 1


ADAPTIVE_ITERATIONS = 500  # cap of the adaptive emphasis iteration


def _resolve_fixed_emphasis(spec: EmphasisSpec, mrp, fm, lam):
    """Concrete emphasis vector for the analytic fixed point; adaptive
    emphasis is iterated to self-consistency, f <- g(f) from f = 1, and
    capped after ``ADAPTIVE_ITERATIONS`` steps.

    A capped iteration returns the iterate it would end on, but stops at
    the first iterate i whose bytes equal an earlier iterate j's: g is
    deterministic, so from j on the iterates repeat with period i - j, and
    the last one is iterate j + (cap - j) % (i - j).  No later step could
    converge or raise, since every step of the cycle has already been taken
    and failed the 1e-12 test."""
    if spec.kind is EmphasisKind.COUNT_INVERSE:
        return long_run_count_inverse(mrp, spec.epsilon_floor), \
            "long-run visitation limit"
    if spec.kind is EmphasisKind.ABS_EXPECTED_TD_ERROR:
        build = system_builder(mrp, fm, lam)
        f = np.ones(mrp.n_states)
        iterates, first_seen = [f], {f.tobytes(): 0}
        for i in range(1, ADAPTIVE_ITERATIONS + 1):
            theta = fixed_point(build(f))
            nxt = emphasis_abs_expected_td(mrp, fm, theta, spec.epsilon_floor)
            if np.max(np.abs(nxt - f)) < 1e-12:
                return nxt, "self-consistent adaptive emphasis"
            j = first_seen.setdefault(nxt.tobytes(), i)
            if j < i:
                f = iterates[j + (ADAPTIVE_ITERATIONS - j) % (i - j)]
                break
            iterates.append(nxt)
            f = nxt
        return f, "adaptive emphasis iteration hit its cap"
    return init_emphasis_state(spec, mrp).values, "fixed emphasis"


def cmd_fixed_point(args) -> int:
    mrp, fm = resolve_task(args.task)
    spec = parse_emphasis(args.emphasis, args.epsilon_floor)
    f, note = _resolve_fixed_emphasis(spec, mrp, fm, args.lam)
    system = compute_A_b(mrp, fm, f, args.lam)
    theta = fixed_point(system)
    report = contraction_condition(mrp, f, args.lam, kappa=args.kappa)
    payload = {
        "task": args.task,
        "lambda": args.lam,
        "emphasis": f.tolist(),
        "emphasis_note": note,
        "theta_star": theta.tolist(),
        "mspbe": mspbe(theta, mrp, fm),
        "residual": float(np.max(np.abs(system.A @ theta + system.b))),
        "contraction": {key: getattr(report, key) for key in (
            "condition", "holds", "margin", "lhs", "rhs", "terms", "note")},
    }
    print(json.dumps(payload, indent=1, default=str))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"run": cmd_run, "sweep": cmd_sweep, "verify": cmd_verify,
                "fixed-point": cmd_fixed_point}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, ChainStructureError, ConvergenceError,
            SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
