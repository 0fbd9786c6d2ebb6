"""Experiment harness: deterministic GHZ circuit, random T/C3 ensembles,
and the growth-rate / saturation-time analyses.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .model import _MAX_QUBITS, C3, OperatorProgram, SuperGate, T, localize_c3
from .oracle import OperatorWavefunction
from .tableau import Region, SuperStabilizerTableau

# The most realizations of one ensemble: `run_random_ensemble` spawns one
# SeedSequence per realization before any runs, 1.5 s for 10,000.
_MAX_REALIZATIONS = 10_000
# The most gates of a GHZ program: the localized program at n = 1,200 has
# 958,400 and takes 1.5 s and 16 MB to build.
_MAX_GHZ_GATES = 1_000_000
# The most entropy samples of one ensemble, (time_steps // sample_every + 1)
# per realization, all held until the run ends: `random --n 3` peaks at 194 MB
# for 10,000 realizations of 999 steps, 285 MB for one of 9,999,999.
_MAX_SAMPLES = 10_000_000


class ExperimentError(ValueError):
    pass


class OracleMismatch(Exception):
    """A sampled entropy on which the tableau and the dense oracle differ."""


@dataclasses.dataclass
class ExperimentConfig:
    n_qubits: int
    time_steps: int
    realizations: int
    rng_seed: int
    # an int p is the prefix 1..p, any other value Region(cut), None prefix(N // 2)
    cut: Union[Iterable[int], int, None] = None
    sample_every: int = 1
    output: Optional[str] = None

    def __post_init__(self):
        for key in ("n_qubits", "time_steps", "realizations", "rng_seed", "sample_every"):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ExperimentError(f"{key} must be an integer, got {value!r}")
        if self.n_qubits < 3:
            raise ExperimentError("random runs need at least 3 qubits")
        if self.time_steps < 0 or self.realizations < 1 or self.sample_every < 1:
            raise ExperimentError("bad time_steps/realizations/sample_every")
        if self.rng_seed < 0:
            raise ExperimentError(f"rng_seed must be non-negative, got {self.rng_seed}")
        if self.n_qubits > _MAX_QUBITS:
            raise ExperimentError(
                f"n_qubits {self.n_qubits} is over the limit of {_MAX_QUBITS} qubits"
            )
        if self.realizations > _MAX_REALIZATIONS:
            raise ExperimentError(
                f"realizations {self.realizations} is over the limit of "
                f"{_MAX_REALIZATIONS} realizations"
            )
        samples = (self.time_steps // self.sample_every + 1) * self.realizations
        if samples > _MAX_SAMPLES:
            raise ExperimentError(
                f"the run stores {samples} entropy samples, over the limit of "
                f"{_MAX_SAMPLES} samples"
            )
        if self.output is not None and not isinstance(self.output, str):
            raise ExperimentError(f"output must be a path string, got {self.output!r}")
        n = self.n_qubits
        cut = n // 2 if self.cut is None else self.cut
        # a str or a dict iterates, but not over sites
        if isinstance(cut, (bool, str, dict)) or not isinstance(cut, (int, Iterable)):
            raise ExperimentError(
                f"cut must be a site count or a site list, got {cut!r}"
            )
        if isinstance(cut, int):
            if not 0 <= cut <= n:  # before building a huge prefix
                raise ExperimentError(f"cut {cut} out of range 0..{n}")
            self.cut = Region.prefix(cut)
        else:
            self.cut = Region(cut)
            self.cut.validate(n)

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "cut": sorted(self.cut.sites)}


@dataclasses.dataclass
class EntropySeries:
    """Sampled entropy per step: one column per realization; `mean` and
    `stderr` are computed once, on first use."""

    steps: np.ndarray  # (n_samples,)
    values: np.ndarray  # (n_samples, realizations)

    @functools.cached_property
    def mean(self) -> np.ndarray:
        return self.values.mean(axis=1)

    @functools.cached_property
    def stderr(self) -> np.ndarray:
        r = self.values.shape[1]
        if r < 2:
            # one realization has no spread: a read-only 0 of stride 0, no
            # array per sample
            return np.broadcast_to(0.0, self.steps.shape)
        return self.values.std(axis=1, ddof=1) / math.sqrt(r)

    @property
    def realizations(self) -> int:
        return self.values.shape[1]


def build_ghz_program(n_qubits: int, localized: bool = False) -> OperatorProgram:
    """T on the first N/3 sites, then the block-coupling C3 layer.

    Gates are listed in operator-space application order.  With
    `localized`, each C3 is expanded into nearest-neighbor SWAPs around a
    local C3, giving an O(N^2) total gate count.
    """
    if n_qubits % 3 != 0 or n_qubits < 3:
        raise ExperimentError("GHZ circuit needs n_qubits a positive multiple of 3")
    if n_qubits > _MAX_QUBITS:
        raise ExperimentError(
            f"n_qubits {n_qubits} is over the limit of {_MAX_QUBITS} qubits"
        )
    k = n_qubits // 3
    # k T and k C3; localized, each C3 is 3k - 3 SWAPs each way around it
    count = k + k * (6 * k - 5 if localized else 1)
    if count > _MAX_GHZ_GATES:
        raise ExperimentError(
            f"the GHZ program on {n_qubits} qubits has {count} gates, "
            f"over the limit of {_MAX_GHZ_GATES} gates"
        )
    gates: List[SuperGate] = [T(j) for j in range(1, k + 1)]
    for j in range(1, k + 1):
        c3 = C3(j, k + j, 2 * k + j)
        if localized:
            gates.extend(localize_c3(c3, n_qubits))
        else:
            gates.append(c3)
    # in range and distinct by construction, and `localize_c3` checks each C3
    return OperatorProgram._checked(n_qubits, tuple(gates))


def random_step(rng: np.random.Generator, n_qubits: int) -> List[SuperGate]:
    """One time step: a T on a uniform site, then a C3 on a uniform
    contiguous 3-site window with a uniformly chosen control."""
    if n_qubits < 3:
        raise ExperimentError("random step needs at least 3 qubits")
    t_site = int(rng.integers(1, n_qubits + 1))
    base = int(rng.integers(1, n_qubits - 1))  # window start, 1..N-2
    window = [base, base + 1, base + 2]
    control = window.pop(int(rng.integers(0, 3)))
    return [T(t_site), C3(control, window[0], window[1])]


# Time steps per `Generator.integers` call in `circuit_stream`: enough to
# amortize numpy's per-call cost, few enough to keep each block a few kB.
STREAM_BLOCK = 2048


def circuit_stream(
    rng: np.random.Generator, n_qubits: int, steps: int
) -> Iterator[Tuple[int, int, int, int]]:
    """Yield `(t_site, control, target_1, target_2)` for `steps` time steps,
    equal to the gates of `steps` successive `random_step(rng, n_qubits)`.

    Each block of `STREAM_BLOCK` steps is one `rng.integers` call with array
    bounds, which numpy draws element by element, in C order, with the same
    bounded-integer routine as the three scalar calls of `random_step`.  So
    `rng` runs up to one block ahead of the yielded steps: draw nothing else
    from it while the stream is in use.  Once it is exhausted, `rng` is where
    `steps` successive `random_step` calls would leave it.

    Each block is range-checked before any of its steps is yielded, since
    both simulators' block kernels take them unchecked: a T site in 1..N, a
    window start in 1..N-2 and a control slot in 0..2, which put the three
    C3 sites in 1..N, apart and adjacent.
    """
    if n_qubits < 3:
        raise ExperimentError("random step needs at least 3 qubits")
    if steps < 0:
        raise ExperimentError("steps must be non-negative")
    # per step: T site in 1..N, window start in 1..N-2, control slot in 0..2
    lows, highs = [1, 1, 0], [n_qubits + 1, n_qubits - 1, 3]
    for start in range(0, steps, STREAM_BLOCK):
        k = min(STREAM_BLOCK, steps - start)
        draw = rng.integers(lows, highs, size=(k, 3))
        if ((draw < lows) | (draw >= highs)).any():
            raise ExperimentError(f"a drawn step is out of range for {n_qubits} qubits")
        t_site, base, slot = draw.T
        yield from zip(
            t_site.tolist(),
            (base + slot).tolist(),
            (base + (slot == 0)).tolist(),
            (base + 2 - (slot == 2)).tolist(),
        )


def _run_realization(
    config: ExperimentConfig, oracle_check: bool, job: Tuple[int, np.random.SeedSequence]
) -> np.ndarray:
    """Realization r of `job = (r, seed_seq)`: the tableau's entropy at step 0
    and every `sample_every` steps; none drawn past the last.

    Each sample block runs as `_apply_steps` calls of at most `STREAM_BLOCK`
    steps, so a sparsely sampled run holds no more steps than the stream's
    draw block.  An entropy is taken only if some C3 of the block had sites
    on both sides of the cut, and the last value repeats otherwise: a gate on
    one side's sites alone maps that side's columns invertibly, so neither T
    nor such a C3 changes S.  With `oracle_check`, each chunk also runs through
    `OperatorWavefunction._apply_steps`, and the oracle takes every entropy, so
    that rule is tested at every sample; the first sample off by over 1e-6
    raises `OracleMismatch`.
    """
    r, seed_seq = job
    region, sample_every = config.cut, config.sample_every
    out = np.empty(config.time_steps // sample_every + 1)
    tableau = SuperStabilizerTableau.new_all_x(config.n_qubits)
    oracle = OperatorWavefunction.new_all_x(config.n_qubits) if oracle_check else None
    side = [site in region.sites for site in range(config.n_qubits + 1)]
    rng = np.random.default_rng(seed_seq)
    steps = circuit_stream(rng, config.n_qubits, (len(out) - 1) * sample_every)
    entropy = tableau.entropy(region)
    for i in range(len(out)):
        if i:
            crossed = False
            for start in range(0, sample_every, STREAM_BLOCK):
                block = list(islice(steps, min(STREAM_BLOCK, sample_every - start)))
                tableau._apply_steps(block)
                crossed = crossed or _crosses(block, side)
                if oracle_check:
                    oracle._apply_steps(block)
            if crossed:
                entropy = tableau.entropy(region)
        out[i] = entropy
        if oracle_check:
            expected = oracle.entropy(region)
            if not abs(expected - entropy) <= 1e-6:  # a NaN on either side is bad
                raise OracleMismatch(
                    f"oracle mismatch: realization {r} step {i * sample_every}: "
                    f"tableau {float(entropy)} oracle {float(expected)}"
                )
    return out


def _crosses(steps: List[Tuple[int, int, int, int]], side: List[bool]) -> bool:
    """Whether the C3 of some step has sites on both sides of a cut, where
    `side[s]` is the side of site s."""
    for _, control, target_1, target_2 in steps:
        if not side[control] == side[target_1] == side[target_2]:
            return True
    return False


def run_random_ensemble(
    config: ExperimentConfig, max_workers: int = 1, oracle_check: bool = False
) -> EntropySeries:
    """Evolve `realizations` independent tableaus and aggregate entropies.

    Realization r uses the r-th child of SeedSequence(rng_seed), so results
    are reproducible and independent of the worker count: min(max_workers,
    realizations) processes, or this one if that is 1.  With `oracle_check`,
    each also runs on the dense `OperatorWavefunction` in its worker, on the
    same drawn steps; the first sample off by over 1e-6 (realization, then
    step) raises `OracleMismatch`.
    """
    jobs = enumerate(np.random.SeedSequence(config.rng_seed).spawn(config.realizations))
    realization = functools.partial(_run_realization, config, oracle_check)
    workers = min(max_workers, config.realizations)
    steps = np.arange(0, config.time_steps + 1, config.sample_every)
    columns = np.empty((config.realizations, len(steps)))  # filled as each arrives
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for r, column in enumerate((pool.map if pool else map)(realization, jobs)):
            columns[r] = column
    return EntropySeries(steps=steps, values=columns.T)


def plateau_estimate(series: EntropySeries) -> float:
    """Mean entropy over the final 10% of samples."""
    n = len(series.steps)
    tail = max(1, n // 10)
    return float(series.mean[-tail:].mean())


def fit_growth_rate(series: EntropySeries) -> float:
    """Least-squares slope (bits/step) over the window where the ensemble
    mean lies between 10% and 50% of its plateau."""
    mean = series.mean
    plateau = plateau_estimate(series)
    if plateau <= 0:
        raise ExperimentError("series never grows: no growth window")
    lo, hi = 0.1 * plateau, 0.5 * plateau
    window = (mean >= lo) & (mean <= hi)
    if window.sum() < 2:
        raise ExperimentError("growth window too short for a slope fit")
    x = series.steps[window].astype(float)
    y = mean[window]
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def estimate_saturation_time(series: EntropySeries) -> int:
    """First sampled step where the mean exceeds 0.95 x plateau.

    Requires the final 10% of the series to be flat (slope consistent
    with zero within noise), otherwise the plateau is not established.
    """
    n = len(series.steps)
    if n < 2:
        raise ExperimentError("plateau needs at least 2 samples")
    tail = max(2, n // 10)
    x = series.steps[-tail:]
    y = series.mean[-tail:]
    # the least-squares slope from centred sums: no Vandermonde matrix
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    plateau = plateau_estimate(series)
    drift = abs(slope) * float(x[-1] - x[0])
    noise = max(0.02 * plateau, 2.0 * float(series.stderr[-tail:].mean()))
    if plateau <= 0 or drift > noise:
        raise ExperimentError("plateau not reached")
    above = series.mean >= 0.95 * plateau
    idx = np.argmax(above)
    if not above[idx]:
        raise ExperimentError("mean never exceeds the saturation threshold")
    return int(series.steps[idx])


def page_value(n_qubits: int, cut_size: int) -> float:
    """Average entanglement entropy (bits) of a Haar-random pure state for
    a 2^cut x 2^(N-cut) bipartition, cut being the smaller factor."""
    if not 1 <= cut_size <= n_qubits // 2:
        raise ExperimentError("cut_size must be in 1..N/2")
    return cut_size - 2.0 ** (2 * cut_size - n_qubits - 1) / math.log(2)


# -- result emission --------------------------------------------------------


def format_float(x: float) -> str:
    return f"{x:.9g}"


def write_csv(series: EntropySeries, path: str) -> None:
    """CSV schema: step,mean_entropy,stderr,realizations; LF endings."""
    mean = series.mean
    err = series.stderr
    r = series.realizations
    with open(path, "w", newline="\n") as f:
        f.write("step,mean_entropy,stderr,realizations\n")
        for i, step in enumerate(series.steps):
            f.write(f"{step},{format_float(mean[i])},{format_float(err[i])},{r}\n")


def summarize(config: ExperimentConfig, series: EntropySeries) -> dict:
    summary: dict = {"config": config.to_dict()}
    summary["plateau"] = plateau_estimate(series)
    for key, fn in (
        ("growth_rate", fit_growth_rate),
        ("saturation_step", estimate_saturation_time),
    ):
        try:
            summary[key] = fn(series)
        except ExperimentError as e:
            summary[key] = None
            summary[f"{key}_error"] = str(e)
    cut_size = min(len(config.cut), config.n_qubits - len(config.cut))
    summary["page_value"] = (
        page_value(config.n_qubits, cut_size) if cut_size >= 1 else None
    )
    return summary


def write_summary(summary: dict, path: str) -> None:
    with open(path, "w", newline="\n") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
