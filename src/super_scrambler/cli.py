"""Command-line interface: verify, ghz, random, run-program, rank-bench.

Exit codes: 0 success, 1 verification/assertion failure, 2 usage error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .experiments import (
    ExperimentConfig,
    ExperimentError,
    build_ghz_program,
    circuit_stream,
    page_value,
    run_random_ensemble,
    summarize,
    write_csv,
    write_summary,
)
from .gf2 import gf2_rank
from .model import C3, ProgramError, T, parse_program
from .oracle import MAX_ORACLE_QUBITS, OperatorWavefunction, verify_gate_tables
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
    path: str,
    subcommand: str,
    config: dict,
    seed: Optional[int],
    started: str,
    outputs: List[str],
) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "version": __version__,
        "rng_seed": seed,
        "started": started,
        "finished": _utcnow(),
        "outputs": {out: _sha256(out) for out in outputs},
    }
    with open(path, "w", newline="\n") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


def load_config_file(path: str) -> Dict[str, str]:
    """Flat key = value format mirroring flag names, # comments."""
    out: Dict[str, str] = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


def _apply_config_defaults(args: argparse.Namespace, keys: Dict[str, type]) -> None:
    if not getattr(args, "config", None):
        return
    file_values = load_config_file(args.config)
    unknown = sorted(set(file_values) - set(keys))
    if unknown:
        names = ", ".join(repr(key) for key in unknown)
        raise UsageError(f"{args.config}: unknown key {names}")
    for key, cast in keys.items():
        if getattr(args, key, None) is None and key in file_values:
            raw = file_values[key]
            try:
                setattr(args, key, cast(raw))
            except ValueError:
                raise UsageError(f"{args.config}: bad value {raw!r} for key {key!r}")


def max_workers() -> int:
    cap = os.environ.get("SUPER_SCRAMBLER_THREADS")
    if cap is None:
        return 1
    try:
        return max(1, int(cap))
    except ValueError:
        raise UsageError("SUPER_SCRAMBLER_THREADS must be an integer")


# -- subcommands -------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify_gate_tables()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"[{status}] {check.name}  (max deviation {check.max_deviation:.3e})")
        for note in report.notes:
            print(f"note: {note}")
    if args.manifest:
        write_manifest(args.manifest, "verify", {"json": args.json}, None, args._started, [])
    return EXIT_OK if report.all_passed else EXIT_FAIL


def cmd_ghz(args: argparse.Namespace) -> int:
    n = args.n
    if n is None:
        raise UsageError("--n is required")
    if n % 3 != 0 or n < 3:
        raise UsageError("--n must be a positive multiple of 3")
    k = n // 3
    program = build_ghz_program(n, localized=args.localized)
    tableau = SuperStabilizerTableau.new_all_x(n)
    tableau.apply_program(program)
    cuts = args.cut if args.cut else [k]
    print(f"gates: {len(program)}")
    for p in cuts:
        if not 0 <= p <= n:
            raise UsageError(f"cut {p} out of range 0..{n}")
        print(f"entropy(prefix({p})): {tableau.entropy(Region.prefix(p))}")
    if args.dump_stabilizers:
        sys.stdout.write(tableau.dumps())
    if args.manifest:
        config = {"n": n, "localized": args.localized, "cut": cuts}
        write_manifest(args.manifest, "ghz", config, None, args._started, [])
    return EXIT_OK


def cmd_random(args: argparse.Namespace) -> int:
    if args.from_manifest:
        try:
            with open(args.from_manifest) as f:
                saved = json.load(f)["config"]
        except (OSError, KeyError, json.JSONDecodeError) as e:
            print(f"error: bad manifest: {e}", file=sys.stderr)
            return EXIT_IO
        for flag, key in (
            ("n", "n_qubits"),
            ("steps", "time_steps"),
            ("reals", "realizations"),
            ("seed", "rng_seed"),
            ("sample_every", "sample_every"),
            ("out", "output"),
        ):
            if getattr(args, flag) is None:
                setattr(args, flag, saved.get(key))
        if args.cut is None and saved.get("cut"):
            args.cut = len(saved["cut"])
    _apply_config_defaults(
        args,
        {
            "n": int,
            "steps": int,
            "reals": int,
            "seed": int,
            "cut": int,
            "sample_every": int,
            "out": str,
        },
    )
    for key in ("n", "steps", "reals", "seed"):
        if getattr(args, key) is None:
            raise UsageError(f"--{key.replace('_', '-')} is required")
    cut = Region.prefix(args.cut if args.cut is not None else args.n // 2)
    config = ExperimentConfig(
        n_qubits=args.n,
        time_steps=args.steps,
        realizations=args.reals,
        rng_seed=args.seed,
        cut=cut,
        sample_every=args.sample_every or 1,
        output=args.out,
    )
    series = run_random_ensemble(config, max_workers=max_workers())

    if args.oracle_check:
        rc = _oracle_check(config, series)
        if rc != EXIT_OK:
            return rc

    summary = summarize(config, series)
    outputs = []
    if args.out:
        write_csv(series, args.out)
        summary_path = os.path.splitext(args.out)[0] + ".summary.json"
        write_summary(summary, summary_path)
        outputs = [args.out, summary_path]
    plateau = summary["plateau"]
    print(f"plateau: {plateau:.4f} bits" if plateau is not None else "plateau: n/a")
    for key in ("growth_rate", "saturation_step", "page_value"):
        print(f"{key}: {summary[key]}")
    manifest_path = args.manifest or (
        args.out + ".manifest.json" if args.out else None
    )
    if manifest_path:
        write_manifest(
            manifest_path, "random", config.to_dict(), args.seed, args._started, outputs
        )
    return EXIT_OK


def _oracle_check(config: ExperimentConfig, series) -> int:
    """Re-run every realization with the dense oracle and compare entropies."""
    if config.n_qubits > MAX_ORACLE_QUBITS:
        raise UsageError(
            f"--oracle-check requires n <= {MAX_ORACLE_QUBITS}"
        )
    children = np.random.SeedSequence(config.rng_seed).spawn(config.realizations)
    cut_sites = sorted(config.cut.sites)
    for r, child in enumerate(children):
        rng = np.random.default_rng(child)
        psi = OperatorWavefunction.new_all_x(config.n_qubits)
        sample_idx = 0
        steps = circuit_stream(rng, config.n_qubits, config.time_steps)
        for step in range(0, config.time_steps + 1):
            if step > 0:
                t_site, control, target_1, target_2 = next(steps)
                psi.apply_gate(T(t_site))
                psi.apply_gate(C3(control, target_1, target_2))
            if step % config.sample_every == 0:
                expected = series.values[sample_idx, r]
                got = psi.entropy(cut_sites)
                if abs(got - expected) > 1e-6:
                    print(
                        f"oracle mismatch: realization {r} step {step}: "
                        f"tableau {expected} oracle {got}",
                        file=sys.stderr,
                    )
                    return EXIT_FAIL
                sample_idx += 1
    print("oracle check passed")
    return EXIT_OK


def cmd_run_program(args: argparse.Namespace) -> int:
    try:
        with open(args.file) as f:
            text = f.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    program = parse_program(text)
    tableau = SuperStabilizerTableau.new_all_x(program.n_qubits)
    tableau.apply_program(program)
    if args.entropy_cuts:
        for p in args.entropy_cuts:
            if not 0 <= p <= program.n_qubits:
                raise UsageError(f"cut {p} out of range 0..{program.n_qubits}")
            print(f"entropy(prefix({p})): {tableau.entropy(Region.prefix(p))}")
    if args.dump_stabilizers:
        sys.stdout.write(tableau.dumps())
    if args.manifest:
        config = {"file": args.file, "entropy_cuts": args.entropy_cuts}
        write_manifest(args.manifest, "run-program", config, None, args._started, [])
    return EXIT_OK


def cmd_rank_bench(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    n = args.size
    total = 0.0
    for _ in range(args.iters):
        rows = [int(x) for x in rng.integers(0, 1 << 62, size=n, dtype=np.int64)]
        start = time.perf_counter()
        gf2_rank(rows)
        total += time.perf_counter() - start
    per = total / args.iters
    print(f"gf2_rank on {n}x62 bit matrices: {per * 1e6:.1f} us/call over {args.iters} calls")
    return EXIT_OK


# -- parser ------------------------------------------------------------------


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
    p.add_argument(
        "--entropy-cuts",
        type=lambda s: [int(x) for x in s.split(",") if x],
        help="comma-separated prefix cut sizes",
    )
    p.add_argument("--dump-stabilizers", action="store_true")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_run_program)

    p = sub.add_parser("rank-bench", help="GF(2) rank micro-benchmark")
    p.add_argument("--size", type=int, default=120)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_rank_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._started = _utcnow()
    try:
        return args.func(args)
    except (UsageError, ProgramError, TableauError, ExperimentError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
