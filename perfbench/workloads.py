"""The four benchmark workloads.

Each workload makes its inputs in `prepare` (untimed) and does a fixed
amount of work per `run_round` (timed), so round wall times compare across
rounds, seeds and commits.  Every item in a round checks its own outputs; a
failed check or an exception counts the item as failed and never aborts the
run.

Inputs that the benchmark generates (CLI seeds, circuits, regions) come from
its own `random.Random(seed)`, never from `experiments.random_step`, so a
change to the package's random stream leaves them unchanged.  The package is
driven only through its public entry points, called through module
attributes so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from super_scrambler import cli, experiments, model, tableau

DEFAULT_SEED = 0

# sha256 of the `cuts` entropy list per snapshot depth, for DEFAULT_SEED at
# the default size.  The list is fixed by the benchmark's own inputs and by
# the physics, so any correct version of the package reproduces it.
CUTS_PINNED = {
    1000: "de6807dcd8989b360c5a2a31f24ebb2afb5e8dbfaab8b2f3a094dcc07aeca4c5",
    4000: "e0a031ceeb9c23e33b158e80d0d3a18c1b9e5e2fd80b076fe64e2dc31b10b88a",
    16000: "09e991219e1c40e4802aa018958a5a7d251a172922fdd2352183e1f76a9b9997",
    30000: "ae808b9b46ff17be72c7347f69afd5059220382f7da57170349260399ab22615",
}


@dataclass
class Round:
    """Counts of one round; gate and entropy counts come from the inputs."""

    items: int = 0
    failed: int = 0
    gates: int = 0
    entropies: int = 0
    problems: List[str] = field(default_factory=list)

    def item(self, gates: int, entropies: int, work: Callable[[], List[str]]) -> None:
        """Run one item; `work` returns the problems its checks found."""
        self.items += 1
        self.gates += gates
        self.entropies += entropies
        try:
            problems = work()
        # A broken package must show as a failed item, not end the run.
        except Exception as e:
            problems = [f"{type(e).__name__}: {e}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def call_cli(argv: Sequence[str]) -> Tuple[int, str, str]:
    """`cli.main(argv)` with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


def _sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def draw_step(rng: random.Random, n: int) -> Tuple[int, int, int, int]:
    """A T site and a C3 (control, target, target) on a random contiguous
    window: the distribution of `experiments.random_step`, from our RNG."""
    t_site = rng.randrange(1, n + 1)
    base = rng.randrange(1, n - 1)
    window = [base, base + 1, base + 2]
    control = window.pop(rng.randrange(3))
    return t_site, control, window[0], window[1]


class Fig1:
    """One Fig. 1 realization per round through `super-scrambler random`."""

    name = "fig1"

    def __init__(self, seed: int, n: int = 120, steps: int = 30000, sample_every: int = 200):
        self.n, self.steps, self.sample_every = n, steps, sample_every
        self.cut = n // 2
        self._seeds = random.Random(seed)

    def prepare(self, workdir: str) -> None:
        self.out = os.path.join(workdir, "fig1.csv")

    def next_cli_seed(self) -> int:
        return self._seeds.randrange(2**32)

    def run_round(self) -> Round:
        argv = [
            "random", "--n", str(self.n), "--steps", str(self.steps), "--reals", "1",
            "--seed", str(self.next_cli_seed()), "--cut", str(self.cut),
            "--sample-every", str(self.sample_every), "--out", self.out,
        ]
        r = Round()
        samples = self.steps // self.sample_every + 1
        r.item(2 * self.steps, samples, lambda: self._check(*call_cli(argv)))
        return r

    def _check(self, rc: int, out: str, err: str) -> List[str]:
        if rc != 0:
            return [f"fig1: exit code {rc}: {err.strip()}"]
        with open(self.out, newline="") as f:
            rows = list(csv.DictReader(f))
        s = [float(row["mean_entropy"]) for row in rows]
        problems = []
        if len(s) != self.steps // self.sample_every + 1:
            problems.append(f"fig1: {len(s)} samples")
        if not s or s[0] != 0:
            problems.append("fig1: S(0) != 0")
        if any(v != int(v) or not 0 <= v <= self.cut for v in s):
            problems.append(f"fig1: a sample is not an integer in [0, {self.cut}]")
        tail = s[-max(1, len(s) // 10):]
        tail_mean = sum(tail) / max(1, len(tail))
        if not 0.9 * self.cut < tail_mean < self.cut:
            problems.append(f"fig1: tail mean {tail_mean} outside (0.9 cut, cut)")
        summary = os.path.splitext(self.out)[0] + ".summary.json"
        with open(self.out + ".manifest.json") as f:
            recorded = json.load(f)["outputs"]
        actual = {p: _sha256_file(p) for p in (self.out, summary)}
        if recorded != actual:
            problems.append("fig1: manifest digests do not match the outputs")
        return problems


class Cuts:
    """Entropies of many regions of saved snapshots: `loads` plus `entropy`."""

    name = "cuts"

    def __init__(self, seed: int, n: int = 120,
                 depths: Sequence[int] = (1000, 4000, 16000, 30000), halves: int = 4):
        self.seed, self.n, self.depths, self.halves = seed, n, tuple(depths), halves
        self.pinned = CUTS_PINNED if (seed, n, self.depths, halves) == (
            DEFAULT_SEED, 120, (1000, 4000, 16000, 30000), 4) else {}

    def make_inputs(self) -> None:
        """The circuit and the region pairs (A, complement of A)."""
        rng = random.Random(self.seed)
        n = self.n
        self.circuit = [draw_step(rng, n) for _ in range(max(self.depths))]
        sites = range(1, n + 1)
        regions = [list(range(1, p + 1)) for p in range(1, n)]
        regions.append(list(range(n // 4 + 1, n - n // 4 + 1)))  # middle block
        regions.append(list(range(1, n + 1, 2)))  # odd sites
        regions.extend(sorted(rng.sample(sites, n // 2)) for _ in range(self.halves))
        self.pairs = [
            (tableau.Region(a), tableau.Region(sorted(set(sites) - set(a)))) for a in regions
        ]

    def prepare(self, workdir: str) -> None:
        self.make_inputs()
        tab = tableau.SuperStabilizerTableau.new_all_x(self.n)
        self.dumps: Dict[int, str] = {}
        for depth, (t, c, t1, t2) in enumerate(self.circuit, start=1):
            tab.apply_t(t)
            tab.apply_c3(c, t1, t2)
            if depth in self.depths:
                self.dumps[depth] = tab.dumps()

    def run_round(self) -> Round:
        r = Round()
        for depth in self.depths:
            r.item(0, 2 * len(self.pairs), lambda depth=depth: self._snapshot(depth))
        return r

    def entropies(self, dump: str) -> List[int]:
        tab = tableau.SuperStabilizerTableau.loads(dump)
        return [tab.entropy(region) for pair in self.pairs for region in pair]

    def _snapshot(self, depth: int) -> List[str]:
        values = self.entropies(self.dumps[depth])
        n, problems = self.n, []
        for (a, _), s_a, s_b in zip(self.pairs, values[::2], values[1::2]):
            if s_a != s_b:
                problems.append(f"cuts@{depth}: S(A) {s_a} != S(complement) {s_b}")
            if not 0 <= s_a <= min(len(a), n - len(a)):
                problems.append(f"cuts@{depth}: S = {s_a} out of range for |A| = {len(a)}")
        profile = [0] + values[: 2 * (n - 1) : 2] + [0]
        if any(abs(x - y) > 1 for x, y in zip(profile, profile[1:])):
            problems.append(f"cuts@{depth}: prefix profile jumps by more than 1")
        digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()
        if depth in self.pinned and digest != self.pinned[depth]:
            problems.append(f"cuts@{depth}: entropy digest {digest} != pinned")
        return problems


class GhzLocal:
    """The localized GHZ program through `super-scrambler run-program`.

    Deterministic: `seed` is taken for the common signature and changes nothing.
    """

    name = "ghz-local"

    def __init__(self, seed: int, sizes: Sequence[int] = (60, 90, 120)):
        self.sizes = tuple(sizes)

    def prepare(self, workdir: str) -> None:
        self.path = os.path.join(workdir, "ghz.prog")
        self.gates: Dict[int, int] = {}
        self.reference: Dict[int, str] = {}
        for n in self.sizes:
            self.gates[n] = len(experiments.build_ghz_program(n, localized=True))
            tab = tableau.SuperStabilizerTableau.new_all_x(n)
            tab.apply_program(experiments.build_ghz_program(n))
            self.reference[n] = tab.dumps()

    def run_round(self) -> Round:
        r = Round()
        for n in self.sizes:
            r.item(self.gates[n], 1, lambda n=n: self._program(n))
        return r

    def _program(self, n: int) -> List[str]:
        k = n // 3
        program = experiments.build_ghz_program(n, localized=True)
        with open(self.path, "w", newline="\n") as f:
            f.write(model.format_program(program))
        rc, out, err = call_cli(
            ["run-program", self.path, "--entropy-cuts", str(k), "--dump-stabilizers"]
        )
        if rc != 0:
            return [f"ghz-local N={n}: exit code {rc}: {err.strip()}"]
        first, _, dump = out.partition("\n")
        tableau.SuperStabilizerTableau.loads(dump)
        problems = []
        if first != f"entropy(prefix({k})): {k}":
            problems.append(f"ghz-local N={n}: {first!r}, expected entropy {k}")
        if dump != self.reference[n]:
            problems.append(f"ghz-local N={n}: dump differs from the non-localized program's")
        return problems


class OracleCheck:
    """A small realization replayed on the dense oracle (`--oracle-check`)."""

    name = "oracle-check"

    def __init__(self, seed: int, n: int = 12, steps: int = 2000):
        self.n, self.steps = n, steps
        self._seeds = random.Random(seed)

    def prepare(self, workdir: str) -> None:
        pass

    def next_cli_seed(self) -> int:
        return self._seeds.randrange(2**32)

    def run_round(self) -> Round:
        argv = [
            "random", "--n", str(self.n), "--steps", str(self.steps), "--reals", "1",
            "--seed", str(self.next_cli_seed()), "--sample-every", "1",
            "--oracle-check",
        ]
        r = Round()
        r.item(2 * self.steps, self.steps + 1, lambda: self._check(*call_cli(argv)))
        return r

    @staticmethod
    def _check(rc: int, out: str, err: str) -> List[str]:
        if rc != 0 or "oracle check passed" not in out:
            return [f"oracle-check: exit code {rc}: {err.strip()}"]
        return []


WORKLOADS = {w.name: w for w in (Fig1, Cuts, GhzLocal, OracleCheck)}
