"""Command-line front end: generate data, learn a graph, score it, benchmark.

The four subcommands compose through files: `generate` writes an edge-list
and a signals CSV, `learn` turns a signals CSV into a learned edge-list plus
a solve report, `eval` scores a predicted edge-list against a truth
edge-list, and `bench` runs the whole seeded loop and writes summary tables.
All configuration comes from a JSON file, and parse_value decodes every
value, a section from its dataclass's fields.  Unknown or repeated keys, null
where a field is not optional, and non-finite numbers are rejected so typos
fail fast, even in a value a flag overrides.  Outputs are deterministic
functions of the config and master seed, and write_json writes every JSON file.

Exit codes are part of the contract:

  0  success
  2  config error (malformed JSON, unknown or invalid keys, or a size that
     cannot be allocated), or a malformed signals CSV or edge list (the
     error names the file and the line at fault)
  3  I/O error (missing or unreadable/unwritable files)
  4  learn hit the iteration cap (result still written, flagged)
  5  solver abort (nonsmooth point, barrier domain or non-finite
     gradient); nothing is written
  6  truth/prediction node-count mismatch in eval
  7  bench: every seed failed
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
import types
import typing
from dataclasses import MISSING, asdict, fields, is_dataclass

from . import __version__, harness
from .datagen import GraphSpec, SignalSpec, gen_graph, gen_signals
from .evaluation import DEFAULT_REL_THRESHOLD, check_threshold, metric_record
from .laplacian import read_edge_list, write_edge_list
from .moments import read_signals_csv, write_signals_csv

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


# ---------------------------------------------------------------------------
# config parsing

def load_config(path) -> dict:
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def unique_keys(pairs):
        doc = {}
        for key, val in pairs:
            if key in doc:
                raise ValueError(f"{path}: repeated key {key!r}")
            doc[key] = val
        return doc

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError as exc:
        # a RuntimeError, which main would report as a solver abort
        raise ValueError(f"{path}: JSON parse error: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top-level config must be a JSON object")
    return doc


def check_keys(doc: dict, allowed, required, where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ValueError(
                f"unknown key {key!r} in {where} (expected one of: {', '.join(sorted(allowed))})"
            )
    for key in required:
        if key not in doc:
            raise ValueError(f"missing required key {key!r} in {where}")


@functools.cache
def _schema(cls) -> dict:
    """Field name -> (resolved type hint, required) for a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    }


def parse_value(hint, val, where: str):
    """Decode one JSON value as `hint`: bool, int, float, str, a config
    dataclass, tuple[T, ...] of a decodable T (from a list), or a union of
    one of them with None.  Numbers must be finite; null is accepted only
    where the hint admits None."""
    if typing.get_origin(hint) in (types.UnionType, typing.Union):
        kinds = typing.get_args(hint)
        if val is None and type(None) in kinds:
            return None
        hint = next(k for k in kinds if k is not type(None))
    if is_dataclass(hint):
        return parse_fields(hint, val, where)
    if typing.get_origin(hint) is tuple:
        if not isinstance(val, list):
            raise ValueError(f"{where} must be a list, got {val!r}")
        item = typing.get_args(hint)[0]
        return tuple(parse_value(item, x, f"{where}[{i}]") for i, x in enumerate(val))
    if hint in (str, bool):
        if not isinstance(val, hint):
            kind = "string" if hint is str else "boolean"
            raise ValueError(f"{where} must be a {kind}, got {val!r}")
        return val
    # the bound also rejects NaN, and ints too large for a float
    if (
        isinstance(val, bool)
        or not isinstance(val, (int, float))
        or not abs(val) <= sys.float_info.max
    ):
        raise ValueError(f"{where} must be a finite number, got {val!r}")
    if hint is int and val != int(val):
        raise ValueError(f"{where} must be an integer, got {val!r}")
    return hint(val)


def parse_fields(cls, doc, where: str, **fixed):
    """Build dataclass `cls` from the JSON object `doc`.

    The allowed keys are the dataclass's fields; the required ones are those
    without a default that `fixed` does not supply.  `fixed` carries only the
    section seeds a master seed derives, so the document may not set them.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be an object")
    for name in fixed:
        if name in doc:
            raise ValueError(f"{where}: per-run seeds derive from the master seed; "
                             f"remove {name!r} from this section")
    schema = _schema(cls)
    required = [name for name, (_, needed) in schema.items() if needed and name not in fixed]
    check_keys(doc, schema, required, where)
    kwargs = {
        name: parse_value(schema[name][0], val, f"{where}.{name}") for name, val in doc.items()
    }
    try:
        return cls(**kwargs, **fixed)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def resolve_out_dir(args, config: dict) -> str:
    """The output directory, checked up front but created by the caller just
    before its first write, so a failed run leaves no directory behind."""
    out = parse_value(str | None, config.get("out"), "config.out")
    if args.out is not None:
        out = args.out
    if not out:
        raise ValueError("no output directory: set 'out' in the config or pass --out")
    check_makedirs(out)
    return out


def check_makedirs(path: str) -> None:
    """Raise now the FileExistsError or NotADirectoryError that
    os.makedirs(path, exist_ok=True) would raise, for the same path, because
    path or its nearest existing ancestor is not a directory.

    Walks the path as os.makedirs does: up through missing ancestors, then
    one mkdir's checks on the lowest missing one.  A dangling symlink on the
    path passes here and fails in os.makedirs itself.
    """
    head, tail = os.path.split(path)
    if not tail:
        head, tail = os.path.split(head)
    if head and tail and not os.path.exists(head):
        check_makedirs(head)
    elif not os.path.isdir(path):
        if not os.path.isdir(head or os.curdir):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
        if os.path.exists(os.path.join(head, tail)):
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), path)


def info(args, message: str) -> None:
    if not args.quiet:
        print(message)


def dumps(doc) -> str:
    """Two-space indented JSON text of a document of dicts/lists/strs/numbers/
    bools/None.  Floats are spelled as their shortest repr, which reads back to
    the same bits, and NaN and infinities are refused."""
    return json.dumps(doc, indent=2, allow_nan=False)


def write_json(path, doc) -> None:
    """Write the document, or raise before creating the file if it cannot be
    serialized."""
    text = dumps(doc) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args) -> int:
    config = load_config(args.config)
    check_keys(config, {"graph", "signals", "seed", "out"}, {"graph", "signals"}, "config")
    master = parse_value(int | None, config.get("seed"), "config.seed")
    master = args.seed if args.seed is not None else master
    graph_fixed = signal_fixed = {}
    if master is not None:
        graph_fixed, signal_fixed = ({"seed": seed} for seed in harness.run_seeds(master, 1)[0])
    graph_spec = parse_fields(GraphSpec, config["graph"], "config.graph", **graph_fixed)
    signal_spec = parse_fields(SignalSpec, config["signals"], "config.signals", **signal_fixed)
    out = resolve_out_dir(args, config)

    graph = gen_graph(graph_spec)
    X = gen_signals(graph.laplacian, signal_spec)

    os.makedirs(out, exist_ok=True)
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
    write_json(os.path.join(out, PROVENANCE_FILE), provenance)
    info(args, f"wrote {GRAPH_FILE}, {SIGNALS_FILE}, {PROVENANCE_FILE} to {out}")
    return EXIT_OK


def cmd_learn(args) -> int:
    config = load_config(args.config)
    check_keys(config, {"signals", "preset", "out", "trace"}, {"signals", "preset"}, "config")
    signals = parse_value(str, config["signals"], "config.signals")
    want_trace = parse_value(bool, config.get("trace", False), "config.trace")
    preset = parse_fields(harness.ModelPreset, config["preset"], "config.preset")
    out = resolve_out_dir(args, config)

    X = read_signals_csv(signals)
    m, n = X.shape
    resolved, report = harness.learn(preset, X)

    doc = {
        "version": __version__,
        "signals": signals,
        "m": m,
        "n": n,
        "preset": asdict(preset),
        "resolved": asdict(resolved),
        **report.record(),
    }
    if want_trace:
        doc["objective_trace"] = list(report.objective_trace)
    # a report that cannot be serialized (a non-finite value) writes nothing
    text = dumps(doc) + "\n"
    os.makedirs(out, exist_ok=True)
    write_edge_list(os.path.join(out, LEARNED_FILE), report.w_final, m)
    with open(os.path.join(out, REPORT_FILE), "w") as fh:
        fh.write(text)
    info(args, f"wrote {LEARNED_FILE}, {REPORT_FILE} to {out} ({report.termination})")
    return EXIT_MAX_ITERS if report.termination == "max_iters" else EXIT_OK


def cmd_eval(args) -> int:
    config = load_config(args.config)
    check_keys(config, {"truth", "predicted", "threshold", "out"}, {"truth", "predicted"}, "config")
    truth = parse_value(str, config["truth"], "config.truth")
    predicted = parse_value(str, config["predicted"], "config.predicted")
    threshold = parse_value(
        float, config.get("threshold", DEFAULT_REL_THRESHOLD), "config.threshold"
    )
    check_threshold(threshold)
    # metrics.json is written only when an output directory is given
    out = None
    if args.out is not None or config.get("out") is not None:
        out = resolve_out_dir(args, config)
    w_truth, m_truth = read_edge_list(truth)
    w_pred, m_pred = read_edge_list(predicted)
    if m_truth != m_pred:
        print(f"error: node-count mismatch: truth has m={m_truth}, prediction has m={m_pred}",
              file=sys.stderr)
        return EXIT_M_MISMATCH
    record = metric_record(w_pred, w_truth > 0, threshold)
    print(dumps(record))
    if out is not None:
        os.makedirs(out, exist_ok=True)
        write_json(os.path.join(out, "metrics.json"), record)
    return EXIT_OK


def cmd_bench(args) -> int:
    config = load_config(args.config)
    check_keys(
        config,
        {"graph", "signals", "presets", "n_seeds", "seed", "threshold", "out"},
        {"graph", "signals", "presets", "n_seeds"},
        "config",
    )
    # per-run seeds replace the placeholder 0 in run_experiment
    graph_spec = parse_fields(GraphSpec, config["graph"], "config.graph", seed=0)
    signal_spec = parse_fields(SignalSpec, config["signals"], "config.signals", seed=0)
    master = parse_value(int, config.get("seed", 0), "config.seed")
    master = args.seed if args.seed is not None else master
    presets = parse_value(tuple[harness.ModelPreset, ...], config["presets"], "config.presets")
    if not presets:
        raise ValueError("config.presets must not be empty")
    n_seeds = parse_value(int, config["n_seeds"], "config.n_seeds")
    threshold = parse_value(
        float, config.get("threshold", DEFAULT_REL_THRESHOLD), "config.threshold"
    )
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    out = resolve_out_dir(args, config)

    summary = harness.run_experiment(
        graph_spec,
        signal_spec,
        presets,
        n_seeds,
        master_seed=master,
        rel_threshold=threshold,
        threads=args.threads,
    )

    os.makedirs(out, exist_ok=True)
    harness.write_summary_csv(os.path.join(out, SUMMARY_CSV), summary["stats"])
    write_json(os.path.join(out, SUMMARY_JSON), summary)
    info(args, f"wrote {SUMMARY_CSV}, {SUMMARY_JSON} to {out}")
    if len(summary["failures"]) == n_seeds * len(presets):
        print("error: every seed failed for every preset", file=sys.stderr)
        return EXIT_ALL_SEEDS_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

EPILOG = "exit codes:\n" + __doc__.partition("Exit codes are part of the contract:\n\n")[2]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``mugl`` parser, built once per process: parsing never mutates it."""
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
    """Run one subcommand and return its exit code.  Codes 0, 4, 6 and 7 are
    the command's own return value; 2, 3 and 5 come from the type of the
    exception it raises."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        # "file not found: <path>", "permission denied: <path>", "not a directory: <path>"
        if isinstance(exc, FileNotFoundError):
            reason = "file not found"
        else:
            reason = (exc.strerror or "I/O error").lower()
        print(f"error: {reason}: {exc.filename or exc}", file=sys.stderr)
        return EXIT_IO
    except RuntimeError as exc:
        print(f"error: solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ABORT
    except MemoryError as exc:
        # nothing is written: each command makes its output directory after its data and fits
        print(f"error: size too large: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
