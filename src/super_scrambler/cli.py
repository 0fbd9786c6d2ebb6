"""Command-line interface: verify, ghz, random, run-program.

Exit codes: 0 success, 1 verification/assertion failure or a dead pool
worker, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import tempfile
from concurrent.futures.process import BrokenProcessPool
from datetime import datetime, timezone
from typing import List, Optional, Sequence, Tuple

from . import __version__
from .experiments import (
    EntropySeries,
    ExperimentConfig,
    ExperimentError,
    OracleMismatch,
    build_ghz_program,
    run_random_ensemble,
    summarize,
    write_csv,
    write_summary,
)
from .model import OperatorProgram, ProgramError, parse_program
from .oracle import MAX_ORACLE_QUBITS, OracleError, verify_gate_tables
from .tableau import Region, SuperStabilizerTableau, TableauError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(
    path: Optional[str], args: argparse.Namespace, config: dict, outputs: Sequence[str] = ()
) -> None:
    """Record the run of `args.command` with `config`, its seed if it has one,
    and a digest per output at `path`; with no path, nowhere."""
    if path is None:
        return
    manifest = {
        "subcommand": args.command,
        "config": config,
        "version": __version__,
        "rng_seed": config.get("rng_seed"),
        "started": args._started,
        "finished": _utcnow(),
        "outputs": {out: _sha256(out) for out in outputs},
    }
    with open(path, "w", newline="\n") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


# `random` settings: flag name -> (ExperimentConfig field, cast for --config strings)
RANDOM_KEYS = {
    "n": ("n_qubits", int),
    "steps": ("time_steps", int),
    "reals": ("realizations", int),
    "seed": ("rng_seed", int),
    "cut": ("cut", int),
    "sample_every": ("sample_every", int),
    "out": ("output", str),
}


def load_config_file(path: str) -> dict:
    """`random` settings from flat key = value lines named like the flags,
    # comments; each value cast as `RANDOM_KEYS` says."""
    out = {}
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key in out:
                raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value
    unknown = sorted(set(out) - set(RANDOM_KEYS))
    if unknown:
        names = ", ".join(repr(key) for key in unknown)
        raise UsageError(f"{path}: unknown key {names}")
    for key, value in out.items():
        try:
            out[key] = RANDOM_KEYS[key][1](value)
        except ValueError:
            raise UsageError(f"{path}: bad value {value!r} for key {key!r}")
    return out


def random_config(
    args: argparse.Namespace,
) -> Tuple[ExperimentConfig, List[str], List[str]]:
    """The `random` settings, the output paths (the CSV and its summary, or
    none) and the output digests the run must reproduce.

    Each key is taken from the first source that gives it: the flags, the
    `--from-manifest` config, the `--config` file.  The digests are the
    manifest's, one per output in output order, when the settings equal the
    manifest's own `ExperimentConfig`; otherwise there are none, and a line
    on stderr says so.
    """
    sources = [{key: getattr(args, key) for key in RANDOM_KEYS}]
    saved, digests = {}, []
    if args.from_manifest:
        try:
            with open(args.from_manifest) as f:
                manifest = json.load(f)
            saved = dict(manifest["config"])
            digests = list(dict(manifest.get("outputs", {})).values())
        except (OSError, KeyError, TypeError, ValueError) as e:
            raise OSError(f"bad manifest: {e}") from e
        writer = manifest.get("subcommand")
        if writer != "random":
            raise UsageError(f"{args.from_manifest}: written by {writer!r}, not 'random'")
        if manifest.get("version") != __version__:
            raise UsageError(
                f"{args.from_manifest}: written by version "
                f"{manifest.get('version')!r}, this is {__version__!r}"
            )
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        problems = [f"unknown key {k!r}" for k in sorted(saved.keys() - fields)]
        problems += [f"no key {k!r}" for k in sorted(fields - saved.keys())]
        if problems:
            raise OSError(f"bad manifest: config has {', '.join(problems)}")
        sources.append({key: saved[f] for key, (f, _) in RANDOM_KEYS.items()})
    if args.config:
        sources.append(load_config_file(args.config))
    # later sources overwrite earlier ones here, so the first source wins
    settings = {
        RANDOM_KEYS[key][0]: value
        for source in reversed(sources)
        for key, value in source.items()
        if value is not None
    }
    for key in ("n", "steps", "reals", "seed"):
        if RANDOM_KEYS[key][0] not in settings:
            raise UsageError(f"--{key} is required")
    try:
        config = ExperimentConfig(**settings)
    except (TypeError, ValueError) as e:
        raise UsageError(str(e))
    outputs = []
    if config.output is not None:
        outputs = [config.output, os.path.splitext(config.output)[0] + ".summary.json"]
    if not args.from_manifest:
        return config, outputs, []
    try:
        recorded = ExperimentConfig(**saved)
    except (TypeError, ValueError) as e:
        raise UsageError(f"{args.from_manifest}: {e}")
    if config != recorded:
        print(
            f"note: settings differ from {args.from_manifest}; "
            "its output digests are not checked",
            file=sys.stderr,
        )
        return config, outputs, []
    if digests and len(digests) != len(outputs):
        raise OSError(
            f"bad manifest: {len(digests)} output digests for {len(outputs)} outputs"
        )
    return config, outputs, digests


def max_workers() -> int:
    """`SUPER_SCRAMBLER_THREADS` (default 1), capped at the CPUs this process
    may run on."""
    try:
        workers = int(os.environ.get("SUPER_SCRAMBLER_THREADS", "1"))
    except ValueError:
        workers = 0
    if workers < 1:
        raise UsageError("SUPER_SCRAMBLER_THREADS must be a positive integer")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return min(workers, cpus)


def check_writable(path: Optional[str]) -> None:
    """Raise `OSError` if `path` is given but names no file that can be written,
    as an empty path does."""
    if path is None:
        return
    folder = os.path.dirname(os.path.abspath(path))
    if not path or "\0" in path or os.path.isdir(path) or not os.access(folder, os.W_OK):
        raise OSError(f"cannot write {path or repr(path)}")


def replace_if_reproduced(
    series: EntropySeries, summary: dict, outputs: List[str], digests: List[str]
) -> Optional[str]:
    """Write the CSV and summary into a directory beside `outputs`, compare
    them with the recorded `digests` (if any) by position, and move them over
    `outputs` only if all match.  Returns the first output that does not
    match, whose recorded files are then left as they are."""
    parent = os.path.dirname(os.path.abspath(outputs[0]))
    with tempfile.TemporaryDirectory(dir=parent) as tmp:
        staged = [os.path.join(tmp, "csv"), os.path.join(tmp, "summary")]
        write_csv(series, staged[0])
        write_summary(summary, staged[1])
        for path, written, digest in zip(outputs, staged, digests):
            if _sha256(written) != digest:
                return path
        for written, path in zip(staged, outputs):
            os.replace(written, path)
    return None


def run_tableau(program: OperatorProgram, cuts: List[int], dump: bool) -> str:
    """Apply `program` to the all-X tableau and return one entropy line per
    prefix cut, then the stabilizers if `dump`.  A cut outside 0..N is
    rejected before anything runs."""
    n = program.n_qubits
    for p in cuts:
        if not 0 <= p <= n:
            raise UsageError(f"cut {p} out of range 0..{n}")
    tableau = SuperStabilizerTableau.new_all_x(n)
    tableau.apply_program(program)
    text = "".join(
        f"entropy(prefix({p})): {tableau.entropy(Region.prefix(p))}\n" for p in cuts
    )
    return text + tableau.dumps() if dump else text


# -- subcommands -------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify_gate_tables()
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for check in report["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            deviation = check["max_deviation"]
            print(f"[{status}] {check['name']}  (max deviation {deviation:.3e})")
        for note in report["notes"]:
            print(f"note: {note}")
    write_manifest(args.manifest, args, {"json": args.json})
    return EXIT_OK if report["all_passed"] else EXIT_FAIL


def cmd_ghz(args: argparse.Namespace) -> int:
    program = build_ghz_program(args.n, localized=args.localized)
    cuts = args.cut or [args.n // 3]
    text = run_tableau(program, cuts, args.dump_stabilizers)
    sys.stdout.write(f"gates: {len(program)}\n{text}")
    config = {"n": args.n, "localized": args.localized, "cut": cuts}
    write_manifest(args.manifest, args, config)
    return EXIT_OK


def cmd_random(args: argparse.Namespace) -> int:
    config, outputs, digests = random_config(args)
    if args.manifest and os.path.abspath(args.manifest) in map(os.path.abspath, outputs):
        raise UsageError(f"--manifest {args.manifest} is also an output")
    # `--manifest`, or else beside the CSV
    manifest = args.manifest
    if manifest is None and outputs:
        manifest = outputs[0] + ".manifest.json"
    for path in [*outputs, manifest]:
        check_writable(path)
    workers = max_workers()
    if args.oracle_check:
        if config.n_qubits > MAX_ORACLE_QUBITS:
            raise UsageError(f"--oracle-check requires n <= {MAX_ORACLE_QUBITS}")
        if not 0 < len(config.cut) < config.n_qubits:
            raise UsageError("--oracle-check requires a nonempty proper cut")
    try:
        series = run_random_ensemble(
            config, max_workers=workers, oracle_check=args.oracle_check
        )
    except OracleMismatch as e:
        print(e, file=sys.stderr)
        return EXIT_FAIL
    except BrokenProcessPool as e:  # a worker died, as by the OOM killer
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    if args.oracle_check:
        print("oracle check passed")
    summary = summarize(config, series)
    mismatch = outputs and replace_if_reproduced(series, summary, outputs, digests)
    print(f"plateau: {summary['plateau']:.4f} bits")
    for key in ("growth_rate", "saturation_step", "page_value"):
        print(f"{key}: {summary[key]}")
    if mismatch:
        print(
            f"error: {mismatch} does not match its digest in {args.from_manifest}",
            file=sys.stderr,
        )
        return EXIT_FAIL
    write_manifest(manifest, args, config.to_dict(), outputs)
    return EXIT_OK


def cmd_run_program(args: argparse.Namespace) -> int:
    cuts = None if args.entropy_cuts is None else args.entropy_cuts.split(",")
    for k, item in enumerate(cuts or []):
        try:
            cuts[k] = int(item)
        except ValueError:
            raise UsageError(f"--entropy-cuts: bad cut {item!r}")
    with open(args.file, encoding="utf-8") as f:
        program = parse_program(f.read())
    sys.stdout.write(run_tableau(program, cuts or [], args.dump_stabilizers))
    write_manifest(args.manifest, args, {"file": args.file, "entropy_cuts": cuts})
    return EXIT_OK


# -- parser ------------------------------------------------------------------


@functools.cache  # one build per process: parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="super-scrambler",
        description="Classical simulation of operator scrambling in super-Clifford circuits",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the state-space gate algebra")
    p.add_argument("--json", action="store_true")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ghz", help="run the deterministic GHZ-entangling circuit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--localized", action="store_true")
    p.add_argument("--cut", type=int, action="append")
    p.add_argument("--dump-stabilizers", action="store_true")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_ghz)

    p = sub.add_parser("random", help="run the random T/C3 circuit ensemble")
    p.add_argument("--n", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--reals", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--cut", type=int, help="prefix cut size (default N/2)")
    p.add_argument("--sample-every", type=int, dest="sample_every")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--from-manifest", help="rerun the config recorded in a manifest")
    p.add_argument("--oracle-check", action="store_true")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("run-program", help="apply a program file to the all-X tableau")
    p.add_argument("file")
    p.add_argument("--entropy-cuts", help="comma-separated prefix cut sizes")
    p.add_argument("--dump-stabilizers", action="store_true")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_run_program)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._started = _utcnow()
    try:
        check_writable(args.manifest)
        return args.func(args)
    except (
        UsageError, ProgramError, TableauError, ExperimentError, OracleError,
        UnicodeDecodeError,  # a config or program file that is not UTF-8
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
