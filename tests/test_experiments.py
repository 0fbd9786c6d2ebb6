import math
import pickle
import re
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from super_scrambler import experiments
from super_scrambler.experiments import (
    EntropySeries,
    ExperimentConfig,
    ExperimentError,
    OracleMismatch,
    STREAM_BLOCK,
    build_ghz_program,
    circuit_stream,
    estimate_saturation_time,
    fit_growth_rate,
    format_float,
    page_value,
    plateau_estimate,
    random_step,
    run_random_ensemble,
    write_csv,
)
from super_scrambler.model import C3, Swap, T, validate_gate
from super_scrambler.oracle import OperatorWavefunction
from super_scrambler.tableau import Region, SuperStabilizerTableau


class TestBuildGhzProgram:
    def test_three_qubits(self):
        prog = build_ghz_program(3)
        assert prog.gates == (T(1), C3(1, 2, 3))

    def test_block_entropies_n12(self):
        tab = SuperStabilizerTableau.new_all_x(12)
        tab.apply_program(build_ghz_program(12))
        assert tab.entropy(Region.prefix(4)) == 4
        assert tab.entropy(Region(range(5, 9))) == 4
        assert tab.entropy(Region(range(9, 13))) == 4

    def test_no_entropy_before_c3_layer(self):
        prog = build_ghz_program(9)
        tab = SuperStabilizerTableau.new_all_x(9)
        t_layer = [g for g in prog.gates if isinstance(g, T)]
        for g in t_layer:
            tab.apply_gate(g)
        assert tab.entropy(Region.prefix(3)) == 0

    def test_localized_variant_same_tableau_quadratic_count(self):
        n = 12
        plain = SuperStabilizerTableau.new_all_x(n)
        plain.apply_program(build_ghz_program(n))
        localized_prog = build_ghz_program(n, localized=True)
        localized = SuperStabilizerTableau.new_all_x(n)
        localized.apply_program(localized_prog)
        assert localized.dumps() == plain.dumps()
        assert len(localized_prog) <= 6 * n * n
        assert all(
            not isinstance(g, Swap) or abs(g.site_a - g.site_b) == 1
            for g in localized_prog.gates
        )

    def test_localized_swaps_are_shared(self):
        # 40 T, 40 local C3 and the adjacent SWAPs, one object per pair of sites
        gates = build_ghz_program(120, localized=True).gates
        assert len(gates) == 9440
        swaps = {id(g) for g in gates if type(g) is Swap}
        assert len(swaps) <= 119
        assert len({id(g) for g in gates}) == 40 + 40 + len(swaps)

    @pytest.mark.parametrize("localized", [False, True])
    def test_every_gate_passes_the_check(self, localized):
        # the builder hands its gates to `OperatorProgram` without its check
        for n in range(3, 61, 3):
            program = build_ghz_program(n, localized)
            assert program.n_qubits == n
            for gate in program.gates:
                validate_gate(gate, n)

    def test_rejects_bad_n(self):
        with pytest.raises(ExperimentError):
            build_ghz_program(4)

    @pytest.mark.parametrize("n", [3, 6, 12, 60, 120])
    def test_gate_count_of_the_limit_check(self, n):
        # the count the gate limit reads: k T and k C3, each localized C3
        # 3k - 3 SWAPs around a local C3 and the SWAPs undone
        k = n // 3
        assert len(build_ghz_program(n)) == 2 * k
        assert len(build_ghz_program(n, localized=True)) == 6 * k * k - 4 * k

    @pytest.mark.parametrize(
        "n, localized, message",
        [
            (3 * 10**8, False, "n_qubits 300000000 is over the limit of 10000 qubits"),
            (10_002, True, "n_qubits 10002 is over the limit of 10000 qubits"),
            (1227, True, "the GHZ program on 1227 qubits has 1002050 gates, "
                         "over the limit of 1000000 gates"),
        ],
    )
    def test_size_limits_before_any_gate(self, monkeypatch, n, localized, message):
        made = []
        monkeypatch.setattr(experiments, "T", lambda *site: made.append(site))
        monkeypatch.setattr(experiments, "localize_c3", lambda *c3: made.append(c3) or [])
        with pytest.raises(ExperimentError, match=f"^{message}$"):
            build_ghz_program(n, localized=localized)
        assert made == []

    def test_largest_programs_under_the_limits(self, monkeypatch):
        assert len(build_ghz_program(9999)) == 6666
        # 997,152 gates at n = 1224: counted, not built
        localized = []
        monkeypatch.setattr(experiments, "localize_c3", lambda *c3: localized.append(c3) or [])
        assert len(build_ghz_program(1224, localized=True)) == 408
        assert len(localized) == 408


class TestRandomStep:
    def test_needs_three_qubits(self):
        with pytest.raises(ExperimentError, match="^random step needs at least 3 qubits$"):
            random_step(np.random.default_rng(0), 2)

    def test_seeded_reproducibility(self):
        a = [random_step(np.random.default_rng(99), 10) for _ in range(5)]
        b = [random_step(np.random.default_rng(99), 10) for _ in range(5)]
        assert a == b

    def test_structure(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            t_gate, c3 = random_step(rng, 9)
            assert isinstance(t_gate, T) and 1 <= t_gate.site <= 9
            sites = sorted([c3.control, c3.target_1, c3.target_2])
            assert sites[1] == sites[0] + 1 and sites[2] == sites[0] + 2
            assert 1 <= sites[0] <= 7

    def test_draw_frequencies_uniform(self):
        # chi-squared style check: every count within 5 sigma of uniform.
        # The stream's steps equal successive random_step draws bit for bit
        # (TestCircuitStream), so these are the counts of 10**6 such draws.
        n = 12
        draws = 1_000_000
        rng = np.random.default_rng(123)
        steps = np.array(list(circuit_stream(rng, n, draws)))
        t_site, control = steps[:, 0], steps[:, 1]
        base = steps[:, 1:].min(axis=1)
        t_counts = np.bincount(t_site - 1, minlength=n)
        control_pos = np.bincount(control - base, minlength=3)
        window_counts = np.bincount(base - 1, minlength=n - 2)
        for counts, k in ((t_counts, n), (control_pos, 3), (window_counts, n - 2)):
            expected = draws / k
            sigma = math.sqrt(draws * (1 / k) * (1 - 1 / k))
            assert np.all(np.abs(counts - expected) <= 5 * sigma)


def scalar_steps(rng, n, steps):
    out = []
    for _ in range(steps):
        t_gate, c3 = random_step(rng, n)
        out.append((t_gate.site, c3.control, c3.target_1, c3.target_2))
    return out


class RiggedDraws:
    """Draws of `rng`, except that the `call`-th `integers` block (from 0)
    has `value` in the given column of its last row."""

    def __init__(self, rng, call, column, value):
        self.rng = rng
        self.call, self.column, self.value = call, column, value

    def integers(self, low, high, size):
        draw = self.rng.integers(low, high, size)
        if self.call == 0:
            draw[-1, self.column] = self.value
        self.call -= 1
        return draw


class TestCircuitStream:
    """`circuit_stream` must equal successive `random_step` draws exactly."""

    def assert_matches(self, n, seed, steps):
        got = list(circuit_stream(np.random.default_rng(seed), n, steps))
        assert got == scalar_steps(np.random.default_rng(seed), n, steps)

    @pytest.mark.parametrize("n", [3, 4, 5, 12, 120])
    def test_matches_random_step(self, n):
        for seed in range(4):
            self.assert_matches(n, seed, 600)

    @pytest.mark.parametrize("steps", [0, 1, 2 * STREAM_BLOCK + 37])
    def test_step_counts_across_blocks(self, steps):
        for n in (3, 120):
            self.assert_matches(n, 11, steps)

    @pytest.mark.parametrize("n", [2**31 + 1, 3 * 2**30, 2**32])
    def test_rejected_words_are_redrawn(self, n):
        # up to half of the T-site words are rejected at these spans, in
        # both blocks
        self.assert_matches(n, 5, STREAM_BLOCK + 301)

    def test_starts_after_a_buffered_half_word(self):
        # one scalar step at N=12 draws three 32-bit words, leaving numpy
        # holding the high half of the second 64-bit word; the stream then
        # ends each full block with one unused word for the next block
        steps = 2 * STREAM_BLOCK + 5
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        random_step(a, 12)
        random_step(b, 12)
        assert list(circuit_stream(a, 12, steps)) == scalar_steps(b, 12, steps)

    @pytest.mark.parametrize("n", [3, 4, 5, 12, 120, 2**31 + 1])
    def test_leaves_generator_where_random_step_would(self, n):
        lengths = (0, 1, 2, 7, STREAM_BLOCK, STREAM_BLOCK + 1)
        for seed in range(10):
            # the scalar reference walks once through every length in turn
            scalar, done = np.random.default_rng(seed), 0
            for steps in lengths:
                scalar_steps(scalar, n, steps - done)
                done = steps
                streamed = np.random.default_rng(seed)
                for _ in circuit_stream(streamed, n, steps):
                    pass
                want = scalar.bit_generator.state
                assert streamed.bit_generator.state == want, (seed, steps)
                follower = np.random.default_rng()
                follower.bit_generator.state = want
                for _ in range(100):
                    assert streamed.integers(0, 2**32) == follower.integers(0, 2**32)

    def test_rejects_unsupported_inputs(self):
        rng = np.random.default_rng(0)
        for n, steps in ((2, 1), (5, -1)):
            with pytest.raises(ExperimentError):
                next(circuit_stream(rng, n, steps))

    @pytest.mark.parametrize(
        "column, value",
        # N = 12: a T site in 1..12, a window start in 1..10, a control slot in 0..2
        [(0, 0), (0, 13), (1, 0), (1, 11), (2, -1), (2, 3)],
    )
    def test_a_block_with_a_bad_draw_yields_none_of_its_steps(self, column, value):
        # the second block has one bad value in its last step: the first
        # block's steps all come out, and then not one step of the second
        rng = RiggedDraws(np.random.default_rng(5), call=1, column=column, value=value)
        stream = circuit_stream(rng, 12, STREAM_BLOCK + 7)
        want = scalar_steps(np.random.default_rng(5), 12, STREAM_BLOCK)
        assert list(islice(stream, STREAM_BLOCK)) == want
        with pytest.raises(ExperimentError, match="^a drawn step is out of range for 12 qubits$"):
            next(stream)

    @pytest.mark.parametrize("n", [2**32 + 1, 2**40 + 3])
    def test_matches_random_step_beyond_32_bits(self, n):
        self.assert_matches(n, 6, STREAM_BLOCK + 301)

    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64]
    )
    def test_matches_random_step_on_other_bit_generators(self, bit_generator):
        for n in (3, 12, 2**31 + 1):
            streamed = np.random.Generator(bit_generator(9))
            scalar = np.random.Generator(bit_generator(9))
            steps = STREAM_BLOCK + 301
            assert list(circuit_stream(streamed, n, steps)) == scalar_steps(
                scalar, n, steps
            )
            # these states hold arrays, which a plain dict == cannot compare
            np.testing.assert_equal(
                streamed.bit_generator.state, scalar.bit_generator.state
            )


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records `max_workers` and maps in
    this process, so no worker is ever started."""

    requested = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


class TestRunRandomEnsemble:
    @pytest.mark.parametrize("realizations, pools", [(2, [2]), (1, [])])
    def test_never_more_workers_than_realizations(
        self, monkeypatch, realizations, pools
    ):
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(RecordingPool, "requested", [])
        cfg = ExperimentConfig(
            n_qubits=6, time_steps=20, realizations=realizations, rng_seed=3
        )
        series = run_random_ensemble(cfg, max_workers=10**6)
        assert RecordingPool.requested == pools
        assert np.array_equal(series.values, run_random_ensemble(cfg).values)

    @pytest.mark.parametrize(
        "key, value",
        [("n_qubits", 12.7), ("time_steps", 20.5), ("realizations", 1.0),
         ("rng_seed", "7"), ("sample_every", True), ("n_qubits", True)],
    )
    def test_int_fields_require_int(self, key, value):
        settings = dict(n_qubits=6, time_steps=10, realizations=2, rng_seed=3)
        settings[key] = value
        with pytest.raises(ExperimentError, match=f"^{key} must be an integer, got"):
            ExperimentConfig(**settings)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n_qubits", 10_001, "n_qubits 10001 is over the limit of 10000 qubits"),
            ("n_qubits", 3 * 10**8, "n_qubits 300000000 is over the limit of 10000 qubits"),
            ("realizations", 10_001,
             "realizations 10001 is over the limit of 10000 realizations"),
            ("realizations", 10**9,
             "realizations 1000000000 is over the limit of 10000 realizations"),
            ("time_steps", 5_000_000,
             "the run stores 10000002 entropy samples, over the limit of 10000000 samples"),
            ("time_steps", 10**12,
             "the run stores 2000000000002 entropy samples, over the limit of 10000000 samples"),
        ],
    )
    def test_config_size_limits_before_the_cut(self, monkeypatch, key, value, message):
        prefixes = []
        monkeypatch.setattr(Region, "prefix", staticmethod(prefixes.append))
        settings = dict(n_qubits=6, time_steps=10, realizations=2, rng_seed=3)
        settings[key] = value
        with pytest.raises(ExperimentError, match=f"^{message}$"):
            ExperimentConfig(**settings)
        assert prefixes == []

    def test_config_at_the_size_limits(self):
        cfg = ExperimentConfig(
            n_qubits=10_000, time_steps=0, realizations=10_000, rng_seed=3
        )
        assert len(cfg.cut) == 5000
        # exactly the most samples, in many short runs or in one long one
        ExperimentConfig(n_qubits=6, time_steps=999, realizations=10_000, rng_seed=3)
        ExperimentConfig(n_qubits=6, time_steps=9_999_999, realizations=1, rng_seed=3)
        # a long run sampled sparsely stores few samples
        ExperimentConfig(
            n_qubits=6, time_steps=10**12, realizations=2, rng_seed=3, sample_every=10**6
        )

    def test_config_needs_three_qubits(self):
        with pytest.raises(ExperimentError, match="^random runs need at least 3 qubits$"):
            ExperimentConfig(n_qubits=2, time_steps=10, realizations=1, rng_seed=3)

    @pytest.mark.parametrize("cut", [3, [1, 2, 3], [3, 1, 2, 2], Region.prefix(3)])
    def test_config_cut_spellings_are_one_config(self, cut):
        settings = dict(n_qubits=6, time_steps=10, realizations=1, rng_seed=3)
        cfg = ExperimentConfig(**settings, cut=cut)
        assert cfg.cut == Region.prefix(3)
        assert cfg == ExperimentConfig(**settings, cut=3)

    def test_config_numpy_int_cut_names_the_field(self):
        # a numpy integer is neither an int nor a site list, as for the int fields
        cut = np.int64(6)
        message = f"^cut must be a site count or a site list, got {re.escape(repr(cut))}$"
        with pytest.raises(ExperimentError, match=message):
            ExperimentConfig(n_qubits=6, time_steps=10, realizations=1, rng_seed=3, cut=cut)

    @pytest.mark.parametrize("cut", [-1, 7, 2**70])
    def test_config_int_cut_out_of_range(self, cut):
        with pytest.raises(ExperimentError, match=f"^cut {cut} out of range 0..6$"):
            ExperimentConfig(
                n_qubits=6, time_steps=10, realizations=1, rng_seed=3, cut=cut
            )

    def test_step_zero_entropy_is_zero(self):
        cfg = ExperimentConfig(
            n_qubits=6, time_steps=10, realizations=3, rng_seed=1, sample_every=2
        )
        series = run_random_ensemble(cfg)
        assert series.steps[0] == 0
        assert np.all(series.values[0] == 0)

    def test_integer_entropies_and_bounds(self):
        cfg = ExperimentConfig(
            n_qubits=8, time_steps=60, realizations=4, rng_seed=5
        )
        series = run_random_ensemble(cfg)
        assert np.all(series.values == np.round(series.values))
        assert np.all(series.values >= 0) and np.all(series.values <= 4)

    def test_deterministic_given_seed(self):
        cfg = dict(n_qubits=7, time_steps=40, realizations=3, rng_seed=77)
        a = run_random_ensemble(ExperimentConfig(**cfg))
        b = run_random_ensemble(ExperimentConfig(**cfg))
        assert np.array_equal(a.values, b.values)

    def test_parallel_matches_serial(self):
        cfg = dict(n_qubits=6, time_steps=30, realizations=4, rng_seed=3)
        serial = run_random_ensemble(ExperimentConfig(**cfg), max_workers=1)
        parallel = run_random_ensemble(ExperimentConfig(**cfg), max_workers=2)
        assert np.array_equal(serial.values, parallel.values)

    @pytest.mark.parametrize(
        "time_steps, sample_every",
        # 53 steps sampled every 5 drop a tail of 3; 4 sampled every 7 draw none
        [(50, 5), (53, 5), (4, 7), (30, 1)],
        ids=["whole-blocks", "dropped-tail", "one-sample", "every-step"],
    )
    def test_matches_oracle_co_run(self, time_steps, sample_every, oracle_entropies):
        cfg = ExperimentConfig(
            n_qubits=6, time_steps=time_steps, realizations=3, rng_seed=21,
            sample_every=sample_every,
        )
        series = run_random_ensemble(cfg)
        assert np.array_equal(series.steps, np.arange(0, time_steps + 1, sample_every))
        checked = run_random_ensemble(cfg, oracle_check=True)
        assert np.array_equal(checked.values, series.values)
        # the oracle's own values, one row per realization
        oracles = np.reshape(oracle_entropies, (cfg.realizations, len(series.steps)))
        children = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.realizations)
        for r, (child, oracle) in enumerate(zip(children, oracles)):
            # the scalar reference: one `random_step` per step on both simulators
            rng = np.random.default_rng(child)
            tab = SuperStabilizerTableau.new_all_x(6)
            psi = OperatorWavefunction.new_all_x(6)
            tableau_ref, oracle_ref = [], []
            for step in range(cfg.time_steps + 1):
                if step > 0:
                    for gate in random_step(rng, 6):
                        tab.apply_gate(gate)
                        psi.apply_gate(gate)
                if step % cfg.sample_every == 0:
                    tableau_ref.append(tab.entropy(cfg.cut))
                    oracle_ref.append(psi.entropy([1, 2, 3]))
            assert series.values[:, r].tolist() == tableau_ref
            assert np.allclose(oracle, oracle_ref, atol=1e-6, rtol=0)
            assert np.allclose(oracle, tableau_ref, atol=1e-6, rtol=0)

    @pytest.mark.parametrize("cut", [None, Region([2, 3, 5])], ids=["half", "sites-2-3-5"])
    @pytest.mark.parametrize(
        "time_steps, sample_every",
        # every step; then blocks of 7 and of 200, each with a dropped tail of 3
        [(300, 1), (353, 7), (1003, 200)],
    )
    def test_matches_step_by_step_reference(self, time_steps, sample_every, cut):
        # the tableau ranks only after a block with a crossing C3; the
        # reference ranks at every sample, one `random_step` per step
        n = 12
        cfg = ExperimentConfig(
            n_qubits=n, time_steps=time_steps, realizations=2, rng_seed=31,
            cut=cut, sample_every=sample_every,
        )
        series = run_random_ensemble(cfg)
        children = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.realizations)
        for r, child in enumerate(children):
            rng = np.random.default_rng(child)
            tab = SuperStabilizerTableau.new_all_x(n)
            want = [tab.entropy(cfg.cut)]
            for step in range(1, time_steps // sample_every * sample_every + 1):
                for gate in random_step(rng, n):
                    tab.apply_gate(gate)
                if step % sample_every == 0:
                    want.append(tab.entropy(cfg.cut))
            assert series.values[:, r].tolist() == want
        assert series.values.max() > 0

    def test_tableau_ranks_after_crossings_only_oracle_at_every_sample(self, monkeypatch):
        cfg = ExperimentConfig(
            n_qubits=12, time_steps=400, realizations=1, rng_seed=4, sample_every=1
        )
        calls = {SuperStabilizerTableau: 0, OperatorWavefunction: 0}
        for cls in calls:
            def counted(self, region, cls=cls, entropy=cls.entropy):
                calls[cls] += 1
                return entropy(self, region)
            monkeypatch.setattr(cls, "entropy", counted)
        # the oracle's steps go through its kernel, not its public gates
        gate_calls = []
        for name in ("apply_t", "apply_c3"):
            def counted_gate(self, *sites, name=name, gate=getattr(OperatorWavefunction, name)):
                gate_calls.append(name)
                gate(self, *sites)
            monkeypatch.setattr(OperatorWavefunction, name, counted_gate)
        (child,) = np.random.SeedSequence(cfg.rng_seed).spawn(1)
        experiments._run_realization(cfg, True, (0, child))
        assert gate_calls == []
        # of the windows 1..10, only those at 5 and 6 cross the cut after site 6
        steps = circuit_stream(np.random.default_rng(child), 12, cfg.time_steps)
        crossing = sum(len({s <= 6 for s in sites}) == 2 for _, *sites in steps)
        assert 0 < crossing < cfg.time_steps // 2
        assert calls == {SuperStabilizerTableau: 1 + crossing, OperatorWavefunction: 401}

    def test_no_step_of_a_rejected_block_reaches_the_kernel(self, monkeypatch):
        # neither simulator's unchecked kernel sees a step of the bad draw,
        # without the oracle check and with it
        cfg = ExperimentConfig(
            n_qubits=12, time_steps=STREAM_BLOCK + 40, realizations=1, rng_seed=2,
            sample_every=7,
        )
        (child,) = np.random.SeedSequence(cfg.rng_seed).spawn(1)
        # the blocks of 7 steps that the first draw holds whole, and no more
        whole = scalar_steps(np.random.default_rng(child), 12, STREAM_BLOCK // 7 * 7)
        real = np.random.default_rng
        for oracle_check in (False, True):
            applied = {SuperStabilizerTableau: [], OperatorWavefunction: []}
            with monkeypatch.context() as patch:
                for cls, seen in applied.items():
                    def recording(self, steps, seen=seen, apply_steps=cls._apply_steps):
                        seen.extend(steps)
                        apply_steps(self, steps)
                    patch.setattr(cls, "_apply_steps", recording)
                patch.setattr(
                    np.random, "default_rng", lambda seed: RiggedDraws(real(seed), 1, 0, 13)
                )
                with pytest.raises(ExperimentError, match="out of range for 12 qubits"):
                    experiments._run_realization(cfg, oracle_check, (0, child))
            assert applied == {
                SuperStabilizerTableau: whole, OperatorWavefunction: whole if oracle_check else []
            }, oracle_check

    def test_sparse_samples_reach_the_kernel_in_stream_sized_chunks(self, monkeypatch):
        # sample blocks of three stream blocks and 5 steps, and a dropped tail:
        # no kernel call holds more steps than one draw block
        sizes = []
        apply_steps = SuperStabilizerTableau._apply_steps

        def recording(self, steps):
            sizes.append(len(steps))
            apply_steps(self, steps)

        monkeypatch.setattr(SuperStabilizerTableau, "_apply_steps", recording)
        n, every = 12, 3 * STREAM_BLOCK + 5
        cfg = ExperimentConfig(
            n_qubits=n, time_steps=2 * every + 3, realizations=1, rng_seed=6,
            sample_every=every,
        )
        (child,) = np.random.SeedSequence(cfg.rng_seed).spawn(1)
        got = experiments._run_realization(cfg, False, (0, child))
        assert sizes == 2 * ([STREAM_BLOCK] * 3 + [5])
        rng = np.random.default_rng(child)
        tab = SuperStabilizerTableau.new_all_x(n)
        want = [tab.entropy(cfg.cut)]
        for step in range(1, 2 * every + 1):
            for gate in random_step(rng, n):
                tab.apply_gate(gate)
            if step % every == 0:
                want.append(tab.entropy(cfg.cut))
        assert got.tolist() == want

    def test_a_crossing_in_an_early_chunk_of_a_sample_block_re_ranks(self, monkeypatch):
        # each sample block opens with a C3 across the cut after site 3; its
        # other steps, the whole last chunk among them, keep to one side
        n, every = 6, STREAM_BLOCK + 1
        one_sided = [(1, 1, 2, 3), (6, 5, 4, 6), (2, 2, 1, 3)]

        def stream(rng, n_qubits, steps):
            for k in range(steps):
                yield (3, 3, 4, 5) if k % every == 0 else one_sided[k % 3]

        cfg = ExperimentConfig(
            n_qubits=n, time_steps=4 * every, realizations=1, rng_seed=0, sample_every=every
        )
        tab = SuperStabilizerTableau.new_all_x(n)
        want = [tab.entropy(cfg.cut)]
        for k, (t, c, t1, t2) in enumerate(stream(None, n, cfg.time_steps)):
            tab.apply_t(t)
            tab.apply_c3(c, t1, t2)
            if (k + 1) % every == 0:
                want.append(tab.entropy(cfg.cut))
        assert want == [0, 1, 2, 1, 0]
        monkeypatch.setattr(experiments, "circuit_stream", stream)
        (child,) = np.random.SeedSequence(cfg.rng_seed).spawn(1)
        # with the oracle check, the oracle takes every entropy and must agree
        for oracle_check in (False, True):
            got = experiments._run_realization(cfg, oracle_check, (0, child))
            assert got.tolist() == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_oracle_simulator_matches_tableau(self, workers, oracle_entropies):
        cfg = ExperimentConfig(
            n_qubits=6, time_steps=40, realizations=2, rng_seed=8,
            cut=Region([5, 2, 3]), sample_every=3,
        )
        assert list(cfg.cut) == [2, 3, 5]
        tableau = run_random_ensemble(cfg)
        children = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.realizations)
        for r, child in enumerate(children):
            oracle_entropies.clear()
            experiments._run_realization(cfg, True, (r, child))
            assert np.allclose(oracle_entropies, tableau.values[:, r], atol=1e-6, rtol=0)
        checked = run_random_ensemble(cfg, max_workers=workers, oracle_check=True)
        assert np.array_equal(checked.steps, tableau.steps)
        assert np.array_equal(checked.values, tableau.values)
        assert tableau.values.max() > 0

    def test_oracle_check_in_workers_keeps_the_series(self):
        # three realizations on two workers: one worker checks two of them
        cfg = ExperimentConfig(
            n_qubits=8, time_steps=60, realizations=3, rng_seed=13, sample_every=2
        )
        checked = run_random_ensemble(cfg, max_workers=2, oracle_check=True)
        assert np.array_equal(checked.values, run_random_ensemble(cfg).values)

    @pytest.mark.parametrize("offset", [0.5, float("nan")], ids=["0.5", "nan"])
    def test_mismatch_names_the_first_failing_sample(self, offset, monkeypatch):
        cfg = ExperimentConfig(
            n_qubits=8, time_steps=62, realizations=3, rng_seed=13, sample_every=4
        )
        series = run_random_ensemble(cfg)
        # the oracle is off from its k-th call on (from 0): at sample 5 of
        # realization 1, as each realization takes 16 samples
        k = len(series.steps) + 5
        returned = []
        entropy = OperatorWavefunction.entropy

        def off(self, region):
            returned.append(entropy(self, region) + (offset if len(returned) >= k else 0))
            return returned[-1]

        monkeypatch.setattr(OperatorWavefunction, "entropy", off)
        with pytest.raises(OracleMismatch) as failure:
            run_random_ensemble(cfg, oracle_check=True)
        assert str(failure.value) == (
            f"oracle mismatch: realization 1 step {5 * cfg.sample_every}: "
            f"tableau {float(series.values[5, 1])} oracle {returned[-1]}"
        )
        # the run stops at that sample: no entropy after it
        assert len(returned) == k + 1

    def test_oracle_check_draws_each_circuit_once(self, monkeypatch):
        calls = []
        stream = experiments.circuit_stream

        def counted(rng, n_qubits, steps):
            calls.append(steps)
            return stream(rng, n_qubits, steps)

        monkeypatch.setattr(experiments, "circuit_stream", counted)
        cfg = ExperimentConfig(
            n_qubits=6, time_steps=23, realizations=3, rng_seed=5, sample_every=4
        )
        checked = run_random_ensemble(cfg, oracle_check=True)
        # the dropped tail of 3 steps is never drawn
        assert calls == [20] * 3
        monkeypatch.undo()
        assert np.array_equal(checked.values, run_random_ensemble(cfg).values)

    def test_oracle_mismatch_survives_pickling(self):
        # how a pool worker sends a failed check back
        error = pickle.loads(pickle.dumps(OracleMismatch("m")))
        assert type(error) is OracleMismatch
        assert str(error) == "m"

    def test_mean_grows_on_average(self):
        cfg = ExperimentConfig(
            n_qubits=10, time_steps=150, realizations=8, rng_seed=2, sample_every=10
        )
        series = run_random_ensemble(cfg)
        assert series.mean[-1] > series.mean[0]


def synthetic_series(means, step_size=1, realizations=10):
    steps = np.arange(len(means)) * step_size
    values = np.tile(np.asarray(means, dtype=float)[:, None], (1, realizations))
    return EntropySeries(steps=steps, values=values)


class TestGrowthRate:
    def test_exactly_linear_series(self):
        s = 0.125
        series = synthetic_series(s * np.arange(400))
        assert fit_growth_rate(series) == pytest.approx(s, abs=1e-9)

    def test_constant_zero_errors(self):
        with pytest.raises(ExperimentError):
            fit_growth_rate(synthetic_series(np.zeros(100)))

    def test_never_reaching_half_plateau(self):
        # one jump straight past 50% leaves no fittable window
        means = np.concatenate([np.zeros(5), np.full(95, 30.0)])
        with pytest.raises(ExperimentError):
            fit_growth_rate(synthetic_series(means))


class TestSaturationTime:
    def test_step_function(self):
        means = np.concatenate([np.zeros(40), np.full(60, 12.0)])
        series = synthetic_series(means, step_size=5)
        assert estimate_saturation_time(series) == 40 * 5

    def test_monotone_never_flattening_errors(self):
        with pytest.raises(ExperimentError, match="plateau"):
            estimate_saturation_time(synthetic_series(np.arange(200, dtype=float)))

    def test_saturating_curve(self):
        t = np.arange(300, dtype=float)
        means = 20 * (1 - np.exp(-t / 30))
        series = synthetic_series(means)
        sat = estimate_saturation_time(series)
        # 0.95 * plateau crossing of the exponential is near 3 * tau
        assert 60 <= sat <= 120

    def test_one_sample_is_an_experiment_error(self):
        series = synthetic_series([0.0], realizations=1)
        with pytest.raises(ExperimentError, match="^plateau needs at least 2 samples$"):
            estimate_saturation_time(series)

    @staticmethod
    def polyfit_outcome(series):
        """The step or the error of the tail test with `np.polyfit`'s slope."""
        n = len(series.steps)
        tail = max(2, n // 10)
        x = series.steps[-tail:].astype(float)
        slope, _ = np.polyfit(x, series.mean[-tail:], 1)
        plateau = float(series.mean[-max(1, n // 10):].mean())
        drift = abs(slope) * (x[-1] - x[0])
        noise = max(0.02 * plateau, 2.0 * float(series.stderr[-tail:].mean()))
        if plateau <= 0 or drift > noise:
            return "plateau not reached"
        above = series.mean >= 0.95 * plateau
        return int(series.steps[np.argmax(above)]) if above.any() else "never"

    def test_tail_slope_decides_as_polyfit(self):
        # saturating curves with noise, and ramps whose tail drift is 0.5 to 2
        # times the 2 % noise floor, 1 +- 1e-9 included
        rng = np.random.default_rng(44)
        outcomes = set()
        for k in range(300):
            n = int(rng.integers(2, 3000))
            step_size = int(rng.integers(1, 300))
            reals = int(rng.integers(1, 5))
            t = np.arange(n, dtype=float)
            if k % 2:
                means = 30 * (1 - np.exp(-t / rng.uniform(1, n)))
                values = means[:, None] + rng.normal(0, rng.uniform(0, 2), (n, reals))
            else:
                tail = max(2, n // 10)
                ratio = rng.choice([rng.uniform(0.5, 2), 1 - 1e-9, 1 + 1e-9])
                level = rng.uniform(1, 50)
                # level + s * t, whose tail drift s * (tail - 1) is ratio * 0.02 * plateau
                s = ratio * 0.02 * level / ((tail - 1) - ratio * 0.02 * (n - (tail + 1) / 2))
                values = np.tile((level + s * t)[:, None], (1, reals))
            series = EntropySeries(steps=np.arange(n) * step_size, values=values)
            try:
                got = estimate_saturation_time(series)
            except ExperimentError as err:
                got = "plateau not reached" if "plateau not" in str(err) else "never"
            expected = self.polyfit_outcome(series)
            assert got == expected, (k, n, step_size)
            outcomes.add(got if isinstance(got, str) else "step")
        assert outcomes == {"plateau not reached", "step"}

    def test_tail_slope_holds_no_design_matrix(self):
        # the tail of 20,000 samples: two float arrays of it at most, a bound
        # that np.polyfit's design matrix and least-squares copies exceed
        n = 200_000
        series = synthetic_series(np.minimum(np.arange(n), 1000.0), realizations=1)
        series.mean, series.stderr  # cached before the trace
        tracemalloc.start()
        try:
            assert estimate_saturation_time(series) == 950
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * (n // 10) + n + 4096


class TestPageValue:
    def test_equal_bipartition_large(self):
        assert page_value(120, 60) == pytest.approx(60 - 0.5 / math.log(2), abs=1e-12)

    def test_two_qubits(self):
        assert page_value(2, 1) == pytest.approx(1 - 0.5 / math.log(2), abs=1e-12)

    def test_haar_average_cross_check(self):
        # The closed form is the large-dimension asymptotic, so the Monte
        # Carlo cross-check uses a 32x32 bipartition where it is accurate
        # (at 2x2 the true Haar average is 1/3 nats, far from the formula).
        rng = np.random.default_rng(31)
        samples = 2000
        total = 0.0
        for _ in range(samples):
            v = rng.normal(size=2048).view(complex)
            v /= np.linalg.norm(v)
            sv = np.linalg.svd(v.reshape(32, 32), compute_uv=False)
            probs = sv**2
            probs = probs[probs > 1e-15]
            total += float(-np.sum(probs * np.log2(probs)))
        assert total / samples == pytest.approx(page_value(10, 5), abs=0.02)

    def test_out_of_range(self):
        with pytest.raises(ExperimentError):
            page_value(10, 0)
        with pytest.raises(ExperimentError):
            page_value(10, 6)


class TestCsvOutput:
    def test_schema_and_formatting(self, tmp_path):
        series = synthetic_series([0.0, 1.0 / 3.0, 2.0], realizations=3)
        path = tmp_path / "out.csv"
        write_csv(series, str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "step,mean_entropy,stderr,realizations"
        assert lines[2].startswith("1,0.333333333,")
        assert all(line.endswith(",3") for line in lines[1:])

    def test_one_realization_stderr_holds_no_array_per_sample(self):
        series = synthetic_series([0.0, 1.0, 2.0, 2.0], realizations=1)
        assert series.stderr.tolist() == [0.0] * 4
        assert series.stderr.strides == (0,)
        assert estimate_saturation_time(series) == 2

    def test_nine_significant_digits(self):
        assert format_float(1.0 / 3.0) == "0.333333333"
        assert format_float(0.0) == "0"
