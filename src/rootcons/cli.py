"""Command-line front end: generate / check / run / scenario / fuzz.

Exit codes: 0 = pass, 1 = property or adversary not satisfied, 2 = input
error, 3 = internal invariant violation.  Machine-readable JSON goes to
stdout, a human-readable summary to stderr.  A lasso path of ``-`` reads
stdin.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .adversary import (
    CHECKS,
    AdversaryError,
    AdversaryParams,
    check_alt_estable,
    check_estable,
    check_mad,
    diagnose,
    generate_alt_estable,
    generate_estable,
)
from .graphs import graph_to_dot, lasso_from_json, lasso_to_json
from .harness import (
    EngineInvariantError,
    Run,
    RunConfig,
    eps_pair_report,
    fuzz_campaign,
    hop_fallacy_report,
    oracle_check,
    scenario_eps_pair,
    scenario_hop_fallacy,
    scenario_stab_not_enough,
    stab_not_enough_report,
    trace_line,
)

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3


def _emit(payload: dict, human: str) -> None:
    print(json.dumps(payload, sort_keys=True))
    print(human, file=sys.stderr)


def _fail_input(message: str) -> int:
    _emit({"ok": False, "error": message}, f"input error: {message}")
    return EXIT_INPUT


class _OutputError(Exception):
    """An output path that cannot be written."""


def _write_outputs(files: dict) -> None:
    """Write each path's text, making missing parent directories.  Commands
    write before they report, so :func:`main` reports an OSError, as an
    :class:`_OutputError`, as the only JSON line."""
    for path, text in files.items():
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        except OSError as exc:
            raise _OutputError(f"cannot write {path}: {exc}") from exc


def _read_lasso(path: str):
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return lasso_from_json(text)


def cmd_generate(args) -> int:
    fields = {
        "n": args.n,
        "D": args.d,
        "seed": args.seed,
        "r_gst_target": args.rgst,
        "r_sr_target": args.rsr,
        "x": args.x,
        "y": args.y,
    }
    if args.params:
        try:
            text = sys.stdin.read() if args.params == "-" else Path(args.params).read_text()
            loaded = json.loads(text)
        except (OSError, ValueError) as exc:  # JSONDecodeError and bad UTF-8 are ValueErrors
            return _fail_input(f"cannot load params JSON: {exc}")
        if not isinstance(loaded, dict):
            return _fail_input(f"params JSON must be an object, got {type(loaded).__name__}")
        unknown = set(loaded) - set(fields)
        if unknown:
            return _fail_input(f"unknown params fields: {sorted(unknown)}")
        for key, value in loaded.items():
            if value is not None and type(value) is not int:  # bools are ints in Python
                return _fail_input(f"params field {key!r} must be an integer or null, got {value!r}")
            if fields[key] is None:
                fields[key] = value
    if fields["n"] is None or fields["D"] is None:
        return _fail_input("n and D are required (flags or params JSON)")
    if fields["seed"] is None:
        fields["seed"] = 0
    x, y = fields.pop("x"), fields.pop("y")
    params = AdversaryParams(**fields)
    try:
        if args.adversary == "estable":
            lasso_seq, cert = generate_estable(params)
        elif args.adversary == "altestable":
            lasso_seq, cert = generate_alt_estable(params)
        else:  # mad: alt-style planting; checker-certified for the given x, y
            x = params.D if x is None else x
            y = params.D if y is None else y
            if x > y:
                return _fail_input(
                    f"mad generation supports x <= y (consensus-solvable regime), got x={x} y={y}"
                )
            lasso_seq, cert = generate_alt_estable(params)
            cert_mad = check_mad(lasso_seq, x, y, params.D)
            if cert_mad is None:
                return _fail_input("generated lasso does not satisfy the requested mad(x, y)")
            cert = cert_mad
    except (AdversaryError, ValueError) as exc:  # ValueError: check_mad rejects a negative x or y
        return _fail_input(str(exc))
    payload = {
        "ok": True,
        "lasso": json.loads(lasso_to_json(lasso_seq)),
        "certificate": cert.to_json_dict(),
    }
    if args.out:
        out = Path(args.out)
        _write_outputs({
            out: lasso_to_json(lasso_seq) + "\n",
            Path(f"{out}.cert.json"): json.dumps(cert.to_json_dict(), sort_keys=True) + "\n",
        })
    _emit(
        payload,
        f"generated {args.adversary} lasso (n={params.n}, D={params.D}, seed={params.seed})",
    )
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        lasso_seq = _read_lasso(args.lasso)
    except (OSError, ValueError) as exc:
        return _fail_input(f"cannot load lasso: {exc}")
    kind = args.adversary
    params = {"D": args.d, "x": args.x, "y": args.y, "window": args.window, "horizon": args.horizon}
    try:
        verdict = diagnose(kind, lasso_seq, params)
    except ValueError as exc:
        return _fail_input(str(exc))
    witness = verdict.witness.to_json_dict() if verdict.witness is not None else None
    if not verdict.ok and CHECKS[kind].certificate is not None:
        # a kind that issues certificates names the condition that failed
        witness = {"failed": verdict.failed, "detail": witness}
    certificate = verdict.certificate.to_json_dict() if verdict.certificate is not None else None
    payload = {"kind": kind, "ok": verdict.ok, "certificate": certificate, "witness": witness}
    _emit(payload, f"{kind}: {'satisfied' if verdict.ok else 'not satisfied'}")
    return EXIT_OK if verdict.ok else EXIT_UNSATISFIED


@contextmanager
def _streamed(path):
    """Yield a writer of the text of ``path`` (None when ``path`` is None)
    that writes to a temporary file in the path's directory, which becomes
    ``path`` when the block ends and is removed if the block raises.  An
    OSError of the file is an :class:`_OutputError`."""
    if path is None:
        yield None
        return
    partial = path.with_name(f".{path.name}.{os.getpid()}.part")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        out = partial.open("w")
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc}") from exc
    try:
        with out:
            yield out.write
        os.replace(partial, path)
    except OSError as exc:
        partial.unlink()
        raise _OutputError(f"cannot write {path}: {exc}") from exc
    except BaseException:
        partial.unlink()
        raise


def _stepped_run(cfg: RunConfig, trace) -> Run:
    """The run of ``cfg``, stepped to its horizon.  With a ``trace`` path,
    each round's trace line, formatted from the outcomes its step returned,
    is written as the run steps; the trace appears only when the run ends,
    so a run that violates an invariant leaves no file."""
    run = Run(cfg)
    with _streamed(trace) as write:
        for _ in range(cfg.horizon):
            outcomes = run.step()
            if write:
                write(trace_line(run.m, cfg.lasso.graph(run.m), outcomes) + "\n")
    return run


def cmd_run(args) -> int:
    try:
        lasso_seq = _read_lasso(args.lasso)
    except (OSError, ValueError) as exc:
        return _fail_input(f"cannot load lasso: {exc}")
    try:
        inputs = tuple(int(v) for v in args.inputs.split(","))
    except ValueError as exc:
        return _fail_input(f"bad inputs: {exc}")
    try:
        horizon = lasso_seq.default_horizon() if args.horizon is None else args.horizon
        cfg = RunConfig(lasso_seq.n, args.d, inputs, lasso_seq, horizon, mode=args.mode)
        cert = check_estable(lasso_seq, args.d)
        if cert is None:  # scans at least to the lasso's default horizon, which may pass MAX_HORIZON
            horizon_chk = max(lasso_seq.default_horizon(), args.horizon or 0)
            cert = check_alt_estable(lasso_seq, args.d, horizon_chk)
    except ValueError as exc:
        return _fail_input(str(exc))
    deadline = cert.deadline if cert else None
    if args.horizon is None and deadline:
        cfg = replace(cfg, horizon=deadline + args.d + 2)
    trace = Path(args.trace_out) if args.trace_out else None
    try:
        run = _stepped_run(cfg, trace)
    except EngineInvariantError as exc:
        _emit(
            {"ok": False, "invariant_violation": str(exc), "pid": exc.pid, "round": exc.round},
            f"invariant violation: {exc}",
        )
        return EXIT_INVARIANT
    run.certificate = cert
    report = oracle_check(run, deadline if deadline is not None else cfg.horizon)
    if trace:
        _write_outputs({Path(f"{trace}.summary.json"): json.dumps(run.summary_dict(), sort_keys=True) + "\n"})
    if args.dot_out:
        _write_outputs({
            Path(args.dot_out, f"round{i:03d}.dot"): graph_to_dot(g, f"round{i}") + "\n"
            for i, g in enumerate(run.tables.graphs, start=1)
        })
    payload = {
        "ok": report.all_ok,
        "oracle": report.to_json_dict(),
        "certificate": cert.to_json_dict() if cert else None,
        "decisions": run.decision_events(),
        "latest_decision_round": run.latest_decision_round(),
    }
    _emit(payload, f"run: {'all oracles pass' if report.all_ok else 'oracle failure'}")
    return EXIT_OK if report.all_ok else EXIT_UNSATISFIED


def _named_lassos(names: tuple, configs: tuple) -> dict:
    return {name: cfg.lasso for name, cfg in zip(names, configs)}


# scenario name -> (its report, {file stem: lasso}) for the parsed arguments
SCENARIOS = {
    "eps-pair": lambda a: (
        eps_pair_report(a.n, a.d, a.rsr_prefix),
        _named_lassos(("eps", "eps_prime"), scenario_eps_pair(a.n, a.d, a.rsr_prefix)),
    ),
    "stab-not-enough": lambda a: (
        stab_not_enough_report(a.n, a.tau, a.d),
        _named_lassos(("eps1", "eps2"), scenario_stab_not_enough(a.n, a.tau, a.d)),
    ),
    "hop-fallacy": lambda a: (hop_fallacy_report(a.n), {"hop_fallacy": scenario_hop_fallacy(a.n)}),
}


def cmd_scenario(args) -> int:
    try:
        report, lassos = SCENARIOS[args.name](args)
    except ValueError as exc:
        return _fail_input(str(exc))
    if args.out_dir:
        _write_outputs({
            Path(args.out_dir, f"{name}.json"): lasso_to_json(lasso_seq) + "\n" for name, lasso_seq in lassos.items()
        })
    _emit(report, f"{args.name}: {'all assertions hold' if report['ok'] else 'FAILED'}")
    return EXIT_OK if report["ok"] else EXIT_UNSATISFIED


def cmd_fuzz(args) -> int:
    try:
        n_lo, n_hi = (int(v) for v in args.n_range.split(":"))
    except ValueError:
        return _fail_input(f"bad n-range {args.n_range!r}, expected lo:hi")
    try:
        summary = fuzz_campaign(
            trials=args.trials,
            seed=args.seed,
            adversary=args.adversary,
            n_range=(n_lo, n_hi),
            d_cap=args.d_cap,
            mode=args.mode,
            jobs=args.jobs,
        )
    except ValueError as exc:
        return _fail_input(str(exc))
    payload = summary.to_json_dict()
    if args.report_out:
        _write_outputs({Path(args.report_out): json.dumps(payload, sort_keys=True) + "\n"})
    _emit(payload, f"fuzz: {summary.passed}/{summary.trials} trials passed")
    if summary.failures and all(f.kind == "config" for f in summary.failures):
        return EXIT_INPUT  # every trial's configuration was rejected: not a protocol failure
    return EXIT_OK if summary.all_ok else EXIT_UNSATISFIED


class _UsageError(Exception):
    """A command line the parser rejects; ``usage`` is the rejecting parser's."""

    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise instead of exiting, so
    that :func:`main` reports them as input errors; subcommand parsers are
    built with the same class."""

    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}", self.format_usage())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rootcons",
        description="Simulate and check consensus on directed dynamic networks "
        "under eventually stabilizing message adversaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a certified adversary lasso")
    g.add_argument("--adversary", choices=["estable", "altestable", "mad"], default="estable")
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--d", type=int, default=None)
    g.add_argument("--rgst", type=int, default=None)
    g.add_argument("--rsr", type=int, default=None)
    g.add_argument("--x", type=int, default=None)
    g.add_argument("--y", type=int, default=None)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--params", default=None, help="JSON file with generator params (- for stdin)")
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("check", help="check a lasso against an adversary class")
    c.add_argument("--lasso", required=True, help="path to lasso JSON, or - for stdin")
    c.add_argument("--adversary", choices=list(CHECKS), default="estable")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--x", type=int, default=None)
    c.add_argument("--y", type=int, default=None)
    c.add_argument("--window", type=int, default=None)
    c.add_argument("--horizon", type=int, default=None)
    c.set_defaults(func=cmd_check)

    r = sub.add_parser("run", help="execute the consensus protocol on a lasso")
    r.add_argument("--lasso", required=True)
    r.add_argument("--inputs", required=True, help="comma-separated input values")
    r.add_argument("--d", type=int, required=True)
    r.add_argument("--mode", default="full", help='"full" or "bounded:<k>"')
    r.add_argument("--horizon", type=int, default=None)
    r.add_argument("--trace-out", default=None)
    r.add_argument("--dot-out", default=None)
    r.set_defaults(func=cmd_run)

    s = sub.add_parser("scenario", help="materialize a named scenario and run its assertions")
    s.add_argument("name", choices=list(SCENARIOS))
    s.add_argument("--n", type=int, default=5)
    s.add_argument("--d", type=int, default=2)
    s.add_argument("--tau", type=int, default=4)
    s.add_argument("--rsr-prefix", type=int, default=0)
    s.add_argument("--out-dir", default=None)
    s.set_defaults(func=cmd_scenario)

    f = sub.add_parser("fuzz", help="generated-adversary fuzz campaign")
    f.add_argument("--adversary", choices=["estable", "altestable"], default="estable")
    f.add_argument("--trials", type=int, default=100)
    f.add_argument("--n-range", default="2:8")
    f.add_argument("--d-cap", type=int, default=3)
    f.add_argument("--seed", type=int, default=1)
    f.add_argument("--mode", default="full")
    f.add_argument("--jobs", type=int, default=1)
    f.add_argument("--report-out", default=None)
    f.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc.usage, end="", file=sys.stderr)
        return _fail_input(str(exc))
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except _OutputError as exc:
        return _fail_input(str(exc))


if __name__ == "__main__":
    sys.exit(main())
