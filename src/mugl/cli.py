"""Command-line front end: generate data, learn a graph, score it, benchmark.

The four subcommands compose through files: `generate` writes an edge-list
and a signals CSV, `learn` turns a signals CSV into a learned edge-list plus
a solve report, `eval` scores a predicted edge-list against a truth
edge-list, and `bench` runs the whole seeded loop and writes summary tables.
All configuration comes from a JSON file; unknown keys are rejected rather
than ignored so typos fail fast.  Outputs are deterministic functions of the
config and master seed.

Exit codes are part of the contract:

  0  success
  2  config error (malformed JSON, unknown or invalid keys)
  3  I/O error (missing or unreadable/unwritable files)
  4  learn hit the iteration cap (result still written, flagged)
  5  solver abort (nonsmooth point, barrier domain, or line-search stall)
  6  truth/prediction node-count mismatch in eval
  7  bench: every seed failed
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, harness, serialize, solvers
from .datagen import GraphSpec, SignalSpec, gen_graph, gen_signals
from .evaluation import DEFAULT_REL_THRESHOLD, metric_record
from .laplacian import read_edge_list, write_edge_list
from .moments import RadiusParams, read_signals_csv, write_signals_csv
from .objective import BarrierDomainError, NonsmoothPointError
from .solvers import LineSearchStallError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_MAX_ITERS = 4
EXIT_SOLVER_ABORT = 5
EXIT_M_MISMATCH = 6
EXIT_ALL_SEEDS_FAILED = 7

GRAPH_FILE = "graph.edges"
SIGNALS_FILE = "signals.csv"
PROVENANCE_FILE = "provenance.json"
LEARNED_FILE = "learned.edges"
REPORT_FILE = "solve_report.json"
SUMMARY_CSV = "summary.csv"
SUMMARY_JSON = "summary.json"


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def config_error(message: str) -> CliError:
    return CliError(EXIT_CONFIG, message)


# ---------------------------------------------------------------------------
# config parsing

def load_config(path) -> dict:
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise config_error(
            f"{path}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise config_error(f"{path}: top-level config must be a JSON object")
    return doc


def check_keys(doc: dict, allowed, required, where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise config_error(
                f"unknown key {key!r} in {where} (expected one of: {', '.join(sorted(allowed))})"
            )
    for key in required:
        if key not in doc:
            raise config_error(f"missing required key {key!r} in {where}")


def _number(doc: dict, key: str, where: str, cast=float):
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise config_error(f"{where}.{key} must be a number, got {val!r}")
    if cast is int and not float(val).is_integer():
        raise config_error(f"{where}.{key} must be an integer, got {val!r}")
    return cast(val)


def parse_graph_spec(doc: dict, where: str, seed: int | None) -> GraphSpec:
    allowed = {"family", "m", "seed", "sigma", "threshold", "p", "theta0", "theta"}
    required = {"family", "m"} if seed is not None or "seed" in doc else {"family", "m", "seed"}
    check_keys(doc, allowed, required, where)
    kwargs = {"family": doc["family"], "m": _number(doc, "m", where, int)}
    kwargs["seed"] = seed if seed is not None else _number(doc, "seed", where, int)
    for key in ("sigma", "threshold", "p"):
        if key in doc:
            kwargs[key] = _number(doc, key, where)
    for key in ("theta0", "theta"):
        if key in doc:
            kwargs[key] = _number(doc, key, where, int)
    try:
        return GraphSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise config_error(f"{where}: {exc}") from None


def parse_signal_spec(doc: dict, where: str, seed: int | None) -> SignalSpec:
    allowed = {"n", "epsilon", "seed", "mu_star"}
    required = {"n", "epsilon"} if seed is not None or "seed" in doc else {"n", "epsilon", "seed"}
    check_keys(doc, allowed, required, where)
    mu_star = None
    if doc.get("mu_star") is not None:
        if not isinstance(doc["mu_star"], list):
            raise config_error(f"{where}.mu_star must be a list of numbers")
        mu_star = np.array([float(x) for x in doc["mu_star"]])
    try:
        return SignalSpec(
            n=_number(doc, "n", where, int),
            epsilon=_number(doc, "epsilon", where),
            seed=seed if seed is not None else _number(doc, "seed", where, int),
            mu_star=mu_star,
        )
    except (TypeError, ValueError) as exc:
        raise config_error(f"{where}: {exc}") from None


def parse_preset(doc: dict, where: str) -> harness.ModelPreset:
    allowed = {"name", "label", "rho1", "rho2", "radius_params", "alpha", "quad_weight", "solver"}
    check_keys(doc, allowed, {"name"}, where)
    kwargs = {"name": doc["name"]}
    if "label" in doc:
        if not isinstance(doc["label"], str):
            raise config_error(f"{where}.label must be a string")
        kwargs["label"] = doc["label"]
    for key in ("rho1", "rho2", "alpha", "quad_weight"):
        if key in doc and doc[key] is not None:
            kwargs[key] = _number(doc, key, where)
    if "radius_params" in doc:
        kwargs["radius_params"] = parse_radius_params(
            doc["radius_params"], f"{where}.radius_params"
        )
    if "solver" in doc:
        kwargs["solver"] = parse_solver_options(doc["solver"], f"{where}.solver")
    try:
        return harness.ModelPreset(**kwargs)
    except (TypeError, ValueError) as exc:
        raise config_error(f"{where}: {exc}") from None


def parse_radius_params(doc, where: str) -> RadiusParams:
    if not isinstance(doc, dict):
        raise config_error(f"{where} must be an object")
    allowed = {"delta", "c0", "c1", "c2", "sigma_norm"}
    check_keys(doc, allowed, set(), where)
    kwargs = {}
    for key in allowed:
        if key in doc and doc[key] is not None:
            kwargs[key] = _number(doc, key, where)
    try:
        return RadiusParams(**kwargs)
    except ValueError as exc:
        raise config_error(f"{where}: {exc}") from None


def parse_solver_options(doc, where: str) -> solvers.SolverOptions:
    if not isinstance(doc, dict):
        raise config_error(f"{where} must be an object")
    ints = {"max_iters", "max_backtracks"}
    floats = {"eta_max", "beta", "gamma", "tol_step", "tol_kkt"}
    check_keys(doc, ints | floats, set(), where)
    kwargs = {}
    for key in doc:
        kwargs[key] = _number(doc, key, where, int if key in ints else float)
    try:
        return solvers.SolverOptions(**kwargs)
    except ValueError as exc:
        raise config_error(f"{where}: {exc}") from None


def resolve_out_dir(args, config: dict) -> str:
    out = args.out if args.out is not None else config.get("out")
    if not out:
        raise config_error("no output directory: set 'out' in the config or pass --out")
    os.makedirs(out, exist_ok=True)
    return out


def info(args, message: str) -> None:
    if not args.quiet:
        print(message)


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args) -> int:
    config = load_config(args.config)
    check_keys(config, {"graph", "signals", "seed", "out"}, {"graph", "signals"}, "config")
    master = args.seed if args.seed is not None else config.get("seed")
    if master is not None:
        master = int(master)
        graph_seed, signal_seed = harness.run_seeds(master, 1)[0]
    else:
        graph_seed = signal_seed = None
    if not isinstance(config.get("graph"), dict) or not isinstance(config.get("signals"), dict):
        raise config_error("'graph' and 'signals' must be objects")
    graph_spec = parse_graph_spec(config["graph"], "config.graph", graph_seed)
    signal_spec = parse_signal_spec(config["signals"], "config.signals", signal_seed)
    out = resolve_out_dir(args, config)

    graph = gen_graph(graph_spec)
    X = gen_signals(graph.laplacian, signal_spec)

    write_edge_list(os.path.join(out, GRAPH_FILE), graph.weights, graph.m)
    write_signals_csv(os.path.join(out, SIGNALS_FILE), X)
    provenance = {
        "version": __version__,
        "master_seed": master,
        "graph_spec": asdict(graph_spec),
        "signal_spec": asdict(signal_spec),
        "n_edges": graph.n_edges,
        "connected": graph.connected,
        "files": {"graph": GRAPH_FILE, "signals": SIGNALS_FILE},
    }
    serialize.write_json(os.path.join(out, PROVENANCE_FILE), provenance)
    info(args, f"wrote {GRAPH_FILE}, {SIGNALS_FILE}, {PROVENANCE_FILE} to {out}")
    return EXIT_OK


def cmd_learn(args) -> int:
    config = load_config(args.config)
    check_keys(config, {"signals", "preset", "out", "trace"}, {"signals", "preset"}, "config")
    if not isinstance(config["signals"], str):
        raise config_error("'signals' must be a path string")
    if not isinstance(config.get("preset"), dict):
        raise config_error("'preset' must be an object")
    want_trace = config.get("trace", False)
    if not isinstance(want_trace, bool):
        raise config_error("'trace' must be a boolean")
    preset = parse_preset(config["preset"], "config.preset")
    out = resolve_out_dir(args, config)

    X = read_signals_csv(config["signals"])
    m, n = X.shape
    resolved, report = harness.learn(preset, X)

    write_edge_list(os.path.join(out, LEARNED_FILE), report.w_final, m)
    doc = {
        "version": __version__,
        "signals": config["signals"],
        "m": m,
        "n": n,
        "preset": harness.preset_doc(preset),
        "resolved": asdict(resolved),
        "iters": report.iters,
        "backtracks": report.backtracks,
        "termination": report.termination,
        "converged": report.converged,
        "kkt_residual": None if math.isnan(report.kkt_residual) else report.kkt_residual,
        "objective": report.objective_trace[-1],
    }
    if want_trace:
        doc["objective_trace"] = list(report.objective_trace)
    serialize.write_json(os.path.join(out, REPORT_FILE), doc)
    info(args, f"wrote {LEARNED_FILE}, {REPORT_FILE} to {out} ({report.termination})")
    if report.termination == "max_iters":
        return EXIT_MAX_ITERS
    if report.termination == "nonsmooth_abort":
        return EXIT_SOLVER_ABORT
    return EXIT_OK


def cmd_eval(args) -> int:
    config = load_config(args.config)
    check_keys(config, {"truth", "predicted", "threshold", "out"}, {"truth", "predicted"}, "config")
    for key in ("truth", "predicted"):
        if not isinstance(config[key], str):
            raise config_error(f"'{key}' must be a path string")
    threshold = DEFAULT_REL_THRESHOLD
    if "threshold" in config:
        threshold = _number(config, "threshold", "config")
    w_truth, m_truth = read_edge_list(config["truth"])
    w_pred, m_pred = read_edge_list(config["predicted"])
    if m_truth != m_pred:
        raise CliError(
            EXIT_M_MISMATCH,
            f"node-count mismatch: truth has m={m_truth}, prediction has m={m_pred}",
        )
    try:
        record = metric_record(w_pred, w_truth > 0, threshold)
    except ValueError as exc:
        raise config_error(str(exc)) from None
    text = serialize.dumps(record)
    print(text)
    if args.out is not None or config.get("out"):
        out = resolve_out_dir(args, config)
        with open(os.path.join(out, "metrics.json"), "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def cmd_bench(args) -> int:
    config = load_config(args.config)
    check_keys(
        config,
        {"graph", "signals", "presets", "n_seeds", "seed", "threshold", "out"},
        {"graph", "signals", "presets", "n_seeds"},
        "config",
    )
    if not isinstance(config.get("graph"), dict) or not isinstance(config.get("signals"), dict):
        raise config_error("'graph' and 'signals' must be objects")
    if "seed" in config["graph"] or "seed" in config["signals"]:
        raise config_error(
            "bench derives per-run seeds from the master seed; "
            "remove 'seed' from the graph/signals sections"
        )
    master = args.seed if args.seed is not None else config.get("seed", 0)
    master = int(master)
    graph_spec = parse_graph_spec(config["graph"], "config.graph", 0)
    signal_spec = parse_signal_spec(config["signals"], "config.signals", 0)
    if not isinstance(config["presets"], list) or not config["presets"]:
        raise config_error("'presets' must be a non-empty list")
    presets = []
    for i, p in enumerate(config["presets"]):
        if not isinstance(p, dict):
            raise config_error(f"config.presets[{i}] must be an object")
        presets.append(parse_preset(p, f"config.presets[{i}]"))
    n_seeds = _number(config, "n_seeds", "config", int)
    threshold = DEFAULT_REL_THRESHOLD
    if "threshold" in config:
        threshold = _number(config, "threshold", "config")
    if args.threads < 1:
        raise config_error(f"--threads must be at least 1, got {args.threads}")
    out = resolve_out_dir(args, config)

    try:
        summary = harness.run_experiment(
            graph_spec,
            signal_spec,
            presets,
            n_seeds,
            master_seed=master,
            rel_threshold=threshold,
            threads=args.threads,
        )
    except ValueError as exc:
        raise config_error(str(exc)) from None

    harness.write_summary_csv(os.path.join(out, SUMMARY_CSV), summary)
    serialize.write_json(os.path.join(out, SUMMARY_JSON), harness.summary_doc(summary))
    info(args, f"wrote {SUMMARY_CSV}, {SUMMARY_JSON} to {out}")
    n_ok = sum(
        1
        for rec in summary.records
        for entry in rec["models"].values()
        if "error" not in entry
    )
    if n_ok == 0:
        raise CliError(EXIT_ALL_SEEDS_FAILED, "every seed failed for every preset")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

EPILOG = "exit codes:\n" + __doc__.partition("Exit codes are part of the contract:\n\n")[2]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mugl",
        description=__doc__.split("\n\n")[0],
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"mugl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    specs = [
        ("generate", cmd_generate, "sample a graph and smooth signals, write them to files"),
        ("learn", cmd_learn, "fit a model preset to a signals CSV"),
        ("eval", cmd_eval, "score a predicted edge-list against a truth edge-list"),
        ("bench", cmd_bench, "run the seeded generate/learn/eval loop and summarize"),
    ]
    subparsers = {}
    for name, func, help_text in specs:
        p = sub.add_parser(
            name,
            help=help_text,
            epilog=EPILOG,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--quiet", action="store_true", help="suppress informational output")
        p.set_defaults(func=func)
        subparsers[name] = p
    # Flags are registered only on the subcommands that read them.
    for name in ("generate", "bench"):
        subparsers[name].add_argument(
            "--seed", type=int, default=None, help="master seed (overrides config)"
        )
    subparsers["bench"].add_argument(
        "--threads", type=int, default=1, help="seed-level concurrency"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_IO
    except IsADirectoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PermissionError as exc:
        print(f"error: permission denied: {exc.filename or exc}", file=sys.stderr)
        return EXIT_IO
    except NonsmoothPointError as exc:
        print(f"error: nonsmooth point: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ABORT
    except (BarrierDomainError, LineSearchStallError) as exc:
        print(f"error: solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ABORT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
