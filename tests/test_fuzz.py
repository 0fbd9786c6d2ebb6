"""Property-based tests: the tableau against the dense oracle on arbitrary
programs, the round trips of the program and stabilizer text formats,
`random` on generated flags, `--config` files and `--from-manifest` manifests,
and `ghz` and `run-program` on generated flags, program files and manifests.

`max_examples` keeps the suite to a few seconds; the deadline is off because
an 8-qubit example checks all 254 regions and its time varies with the load.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from super_scrambler import __version__, cli, experiments, model
from super_scrambler.model import (
    C3,
    STATE_SPACE_DIRECTIVE,
    OperatorProgram,
    Swap,
    T,
    format_program,
    localize_c3,
    parse_program,
)
from super_scrambler.oracle import OperatorWavefunction
from super_scrambler.tableau import Region, SuperStabilizerTableau
from reference import check_stabilized_reference, stabilizers, svd_entropy_reference


@st.composite
def program_pairs(draw, min_qubits=1, max_qubits=8, max_gates=30):
    """(direct, localized): T, SWAP and long-range C3 at any sites; in the
    second program some C3 are rewritten by `localize_c3` into
    nearest-neighbour SWAPs around a local C3."""
    n = draw(st.integers(min_qubits, max_qubits))
    kinds = ["T"] + ["SWAP"] * (n >= 2) + ["C3", "localized C3"] * (n >= 3)

    def distinct(k):
        return draw(st.permutations(range(1, n + 1)))[:k]

    direct, localized = [], []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=max_gates)):
        if kind == "T":
            gates = [T(draw(st.integers(1, n)))]
        elif kind == "SWAP":
            gates = [Swap(*distinct(2))]
        else:
            gates = [C3(*distinct(3))]
        direct += gates
        localized += localize_c3(gates[0], n) if kind == "localized C3" else gates
    return OperatorProgram(n, tuple(direct)), OperatorProgram(n, tuple(localized))


# the round trips take programs with every gate kind up to 20 qubits
localized_programs = program_pairs(max_qubits=20).map(lambda pair: pair[1])


@settings(max_examples=150, deadline=None)
@given(program_pairs(min_qubits=2))
def test_tableau_matches_oracle_on_every_region(pair):
    direct, localized = pair
    n = direct.n_qubits
    tableau = SuperStabilizerTableau.new_all_x(n)
    tableau.apply_program(direct)
    rewritten = SuperStabilizerTableau.new_all_x(n)
    rewritten.apply_program(localized)
    assert rewritten.dumps() == tableau.dumps()
    psi = OperatorWavefunction.new_all_x(n)
    psi.apply_program(localized)
    for sp in stabilizers(tableau):
        assert check_stabilized_reference(psi, sp) in ("plus", "minus")
    # every nonempty proper region; its complement is in the loop as well
    for mask in range(1, (1 << n) - 1):
        region = Region(j + 1 for j in range(n) if (mask >> j) & 1)
        s = tableau.entropy(region)
        complement = Region(set(range(1, n + 1)) - region.sites)
        assert s == tableau.entropy(complement), list(region)
        oracle_s = psi.entropy(region)
        assert abs(s - oracle_s) < 1e-6, list(region)
        assert abs(oracle_s - svd_entropy_reference(psi, region)) < 1e-9, list(region)


@settings(max_examples=100, deadline=None)
@given(localized_programs)
def test_program_text_round_trip(program):
    text = format_program(program)
    assert parse_program(text) == program
    reversed_order = parse_program(f"{STATE_SPACE_DIRECTIVE}\n{text}")
    assert reversed_order.gates == program.gates[::-1]
    assert reversed_order.n_qubits == program.n_qubits


@settings(max_examples=100, deadline=None)
@given(localized_programs)
def test_stabilizer_dump_round_trip(program):
    tableau = SuperStabilizerTableau.new_all_x(program.n_qubits)
    tableau.apply_program(program)
    text = tableau.dumps()
    loaded = SuperStabilizerTableau.loads(text)
    assert loaded.dumps() == text
    assert (loaded.x, loaded.z) == (tableau.x, tableau.z)


# `random` settings by flag name: values that run in milliseconds, then
# values that every source must reject, sizes over their limits among them;
# "{dir}" is the example's directory
SETTINGS = {
    "n": ([3, 4, 6], [-1, 2, 3 * 10**8]),
    "steps": ([0, 3, 8], [-1, 10**13]),
    "reals": ([1, 2], [0, 10**9]),
    "seed": ([0, 3, 2**70], [-1]),
    "cut": ([0, 1, 3], [-1, 7, 2**70]),
    "sample_every": ([1, 2, 5], [0]),
    "out": (
        ["{dir}/a.csv", "{dir}/b.csv"],
        ["{dir}/missing/a.csv", "{dir}", "{dir}/a\0.csv", ""],
    ),
}
FIELDS = {key: field for key, (field, _) in cli.RANDOM_KEYS.items()}


def setting(key, *more_invalid):
    valid, invalid = SETTINGS[key]
    return st.sampled_from(valid * 2 + invalid + list(more_invalid))


# one edit to a recorded manifest: a config value, which may be any JSON
# value, or a valid cut site list in any order and with repeats; an unknown
# or missing config key; other outputs, subcommand or version
MANIFEST_EDITS = st.one_of(
    st.tuples(
        st.just("config"), st.just("cut"), st.lists(st.integers(1, 3), min_size=2, max_size=4)
    ),
    st.sampled_from(sorted(SETTINGS)).flatmap(
        lambda key: st.tuples(
            st.just("config"),
            st.just(FIELDS[key]),
            st.one_of(
                setting(key),
                st.none(), st.booleans(), st.floats(), st.text(max_size=2),
                st.lists(st.integers(-1, 7), max_size=4),
            ),
        )
    ),
    st.tuples(st.just("config"), st.just("bogus"), st.just(1)),
    st.tuples(st.just("drop"), st.sampled_from(sorted(FIELDS.values()))),
    st.tuples(st.just("outputs"), st.sampled_from(["zeroed", "none", "bad"])),
    st.tuples(st.just("subcommand"), st.just("ghz")),
    st.tuples(st.just("version"), st.just("0.0.0")),
)


@st.composite
def random_inputs(draw):
    """(flags, config file text or None, manifest edits or None): flags and
    config lines each name a setting with chance `density` / 4."""
    flags, lines = ["random"], []
    density = draw(st.integers(0, 4))
    for key in SETTINGS:
        if draw(st.integers(1, 4)) <= density:
            flags += [f"--{key.replace('_', '-')}", str(draw(setting(key)))]
        if draw(st.integers(1, 4)) <= density:
            lines.append(f"{key} = {draw(setting(key, 'x'))}")
    if draw(st.booleans()):
        flags.append("--oracle-check")
    config = None
    if draw(st.booleans()):
        junk = st.sampled_from(["# note", "bogus = 1", "no equals"])
        lines += draw(st.lists(junk, max_size=1))
        config = "\n".join(draw(st.permutations(lines))) + "\n"
    edits = draw(st.one_of(st.none(), st.lists(MANIFEST_EDITS, max_size=2)))
    return flags, config, edits


def guard_sizes(mp):
    """Fail an example at the first allocation of a size over its limit, so
    that a missing limit check fails the test instead of exhausting memory."""

    def bounded(make, limit, size=lambda arg: arg):
        def check(arg, *rest, **kwargs):
            assert size(arg) <= limit, arg
            return make(arg, *rest, **kwargs)
        return check

    qubits, tableau = model._MAX_QUBITS, SuperStabilizerTableau
    mp.setattr(tableau, "new_all_x", bounded(tableau.new_all_x, qubits))
    mp.setattr(Region, "prefix", bounded(Region.prefix, qubits))
    mp.setattr(experiments, "T", bounded(experiments.T, qubits))
    ensemble, reals = cli.run_random_ensemble, experiments._MAX_REALIZATIONS
    ensemble = bounded(ensemble, reals, lambda c: c.realizations)
    ensemble = bounded(ensemble, experiments._MAX_SAMPLES,
                       lambda c: (c.time_steps // c.sample_every + 1) * c.realizations)
    mp.setattr(cli, "run_random_ensemble", ensemble)


def _run(argv):
    """`cli.main(argv)`'s exit code, with its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)


@settings(max_examples=150, deadline=None)
@given(random_inputs(), st.integers(3, 6), st.integers(0, 8), st.integers(1, 2))
def test_random_inputs_fail_cleanly_before_any_realization(inputs, n, steps, reals):
    """`cli.main` never raises; an exit 2 or 3 comes before any realization
    runs; and a rerun from the manifest alone either compares every digest
    the manifest records or exits non-zero."""
    flags, config, edits = inputs
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.delenv("SUPER_SCRAMBLER_THREADS", raising=False)
        guard_sizes(mp)
        flags = [flag.replace("{dir}", tmp) for flag in flags]
        if config is not None:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w") as f:
                f.write(config.replace("{dir}", tmp))
            flags += ["--config", path]
        manifest = None
        if edits is not None:
            recorded = os.path.join(tmp, "run.csv")
            argv = ["random", "--n", str(n), "--steps", str(steps),
                    "--reals", str(reals), "--seed", "1", "--out", recorded]
            assert _run(argv) == 0
            manifest = recorded + ".manifest.json"
            with open(manifest) as f:
                record = json.load(f)
            recorded_digests = record["outputs"]
            for kind, *edit in edits:
                if kind == "config":
                    field, value = edit
                    if isinstance(value, str):
                        value = value.replace("{dir}", tmp)
                    record["config"][field] = value
                elif kind == "drop":
                    record["config"].pop(edit[0], None)
                elif edit == ["zeroed"]:
                    record["outputs"] = {path: "0" * 64 for path in recorded_digests}
                elif edit == ["none"]:
                    record.pop("outputs", None)
                elif edit == ["bad"]:
                    record["outputs"] = 5
                else:
                    record[kind] = edit[0]
            with open(manifest, "w") as f:
                json.dump(record, f)
            flags += ["--from-manifest", manifest]

        realizations, compared = [], []
        run_realization = experiments._run_realization
        replace_if_reproduced = cli.replace_if_reproduced

        def counted_realization(*args):
            realizations.append(args)
            return run_realization(*args)

        def recorded_comparison(series, summary, outputs, digests):
            compared.extend(digests)
            return replace_if_reproduced(series, summary, outputs, digests)

        mp.setattr(experiments, "_run_realization", counted_realization)
        mp.setattr(cli, "replace_if_reproduced", recorded_comparison)
        code = _run(flags)
        assert code in (0, 1, 2, 3)
        if code in (2, 3):
            assert not realizations, flags
        if manifest is None:
            return
        # a rerun with no other source
        realizations.clear()
        compared.clear()
        with open(manifest) as f:
            record = json.load(f)
        code = _run(["random", "--from-manifest", manifest])
        assert code in (0, 1, 2, 3)
        if code in (2, 3):
            assert not realizations, record
        if code == 0:
            assert compared == list(dict(record.get("outputs", {})).values()), record


# `--manifest` values: one that can be written, then three that cannot
MANIFESTS = ["{dir}/m.json", "{dir}/missing/m.json", "{dir}", "{dir}/m\0.json"]

# program lines after an "N 3" header: lines that run, then lines that a
# program must reject
GOOD_LINES = ["T 1", "SWAP 1 2", "C3 1 2 3", "C3 3 1 2", "# note", ""]
BAD_LINES = ["T 0", "T 9", "SWAP 1 1", "C3 1 1 2", "X 1", "T", "T x", "N 4",
             "@state-space-order"]


@st.composite
def ghz_and_program_inputs(draw):
    """(argv, program text): a `ghz` run, or a `run-program` run of the
    program text at "{dir}/p.prog", of a missing file or of a folder."""
    if draw(st.booleans()):
        n = draw(st.sampled_from([3, 6, 9, 12] * 2 + [-3, 0, 4, 13, 30_003, 3 * 10**8]))
        argv = ["ghz", f"--n={n}"]
        argv += [f"--cut={cut}" for cut in draw(st.lists(st.integers(-1, 13), max_size=3))]
        argv += ["--localized"] * draw(st.booleans())
        text = None
    else:
        path = draw(st.sampled_from(["{dir}/p.prog"] * 4 + ["{dir}/q", "{dir}"]))
        argv = ["run-program", path]
        if draw(st.booleans()):
            cuts = draw(st.lists(st.integers(-1, 5).map(str) | st.just(""), max_size=3))
            argv.append(f"--entropy-cuts={','.join(cuts)}")
        header = draw(st.sampled_from(["N 3"] * 3 + ["N 0", "N -1", "N 2000000", ""]))
        lines = draw(st.lists(st.sampled_from(GOOD_LINES * 4 + BAD_LINES), max_size=6))
        text = "\n".join([header, *lines]) + "\n"
    argv += ["--dump-stabilizers"] * draw(st.booleans())
    manifest = draw(st.sampled_from([None, None] + MANIFESTS))
    if manifest is not None:
        argv += ["--manifest", manifest]
    return argv, text


@settings(max_examples=100, deadline=None)
@given(ghz_and_program_inputs())
def test_ghz_and_run_program_inputs_fail_cleanly(inputs):
    """`cli.main` never raises; it exits 0, 2 or 3; an unwritable manifest
    exits 3 whatever else is wrong; and a non-zero exit prints nothing and
    writes no manifest."""
    argv, text = inputs
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        guard_sizes(mp)
        argv = [arg.replace("{dir}", tmp) for arg in argv]
        if text is not None:
            with open(os.path.join(tmp, "p.prog"), "w") as f:
                f.write(text)
        listing = sorted(os.listdir(tmp))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3), err.getvalue()
        manifest = argv[-1] if "--manifest" in argv else None
        if manifest is not None and manifest != os.path.join(tmp, "m.json"):
            assert code == 3
            assert err.getvalue() == f"error: cannot write {manifest}\n"
        if code:
            assert out.getvalue() == ""
            assert sorted(os.listdir(tmp)) == listing
        elif manifest is not None:
            assert sorted(os.listdir(tmp)) == sorted(listing + ["m.json"])
