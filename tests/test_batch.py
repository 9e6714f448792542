"""A sweep verifies its valid draws in batches; each draw must come out as
if it were verified alone, through ``verify``, and the batch must not
repeat work that a single verify does once."""

import dataclasses
import gc
import json
import math
import pathlib
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lorentzmin
from lorentzmin import diffgeo, harness, sampling
from lorentzmin.curves import (EX72_CHAIN_BOUNDS, FAMILIES, ParamFamily, _ex72_chain_mid,
                               _valid_rows, validate_family)
from lorentzmin.errors import DegenerateMetricError, InvalidInputError
from lorentzmin.harness import SurfaceSpec, dumps_json, sweep, verify
from lorentzmin.report import default_tolerances
from lorentzmin.surfaces import SPHERE_DOMAIN, _stacked, sphere_case_b

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"
SPHERE_71 = {
    "family": "sphere_b",
    "curves": [{"family_id": "Ex7_1", "params": {"a": 1, "p": 3, "q": 1, "r": 2}}],
}


def draw_params(family, cfg, rng):
    """One parameter set drawn by scalar rng calls, the reference for
    ``sampling._draw_chunks``, which must consume the same values in the
    same order with the same bounds."""
    mode = cfg["mode"]
    if mode == "sorted_box":
        a = rng.uniform(*cfg["a_box"])
        for _ in range(sampling.MAX_SAMPLER_TRIES):
            draws = np.sort(rng.uniform(*cfg["pqr_box"], 3))[::-1]
            if draws[0] - draws[1] >= cfg["min_gap"] and draws[1] - draws[2] >= cfg["min_gap"]:
                return {"a": float(a), "p": float(draws[0]), "r": float(draws[1]),
                        "q": float(draws[2])}
        raise InvalidInputError(
            f"sampler drew no (p, r, q) with gaps >= {cfg['min_gap']:g} from "
            f"{cfg['pqr_box']} in {sampling.MAX_SAMPLER_TRIES} tries")
    if mode == "chain":
        hi, lo = EX72_CHAIN_BOUNDS
        for _ in range(sampling.MAX_SAMPLER_TRIES):
            q, r = rng.uniform(*cfg["qr_box"], 2)
            mid = _ex72_chain_mid(q, r)
            if mid > 0:
                p = math.sqrt(rng.uniform(mid / hi, mid / lo))
                return {"p": float(p), "q": float(q), "r": float(r)}
        raise InvalidInputError(
            f"sampler drew no (q, r) with a nonempty chain interval from {cfg['qr_box']} "
            f"in {sampling.MAX_SAMPLER_TRIES} tries")
    vals = [c * rng.uniform(1 - cfg["rel"], 1 + cfg["rel"]) for c in cfg["center"]]
    return dict(zip(FAMILIES[family]["params"], map(float, vals)))


def draw_by_draw(family, n, seed):
    """The sweep summary from one ``verify`` per valid draw, folded in draw
    order with np.maximum, as an unbatched sweep does."""
    cfg = harness._sampler_config(family, None)
    rng = np.random.default_rng(seed)
    surface_family = FAMILIES[family]["surface"]
    valid = passed = failed = invalid = 0
    worst, failures = {}, []
    for _ in range(n):
        params = draw_params(family, cfg, rng)
        if not validate_family(ParamFamily(family, params)).ok:
            invalid += 1
            continue
        valid += 1
        report = verify(SurfaceSpec(family=surface_family, grid=tuple(cfg["grid"]),
                                    curves=({"family_id": family, "params": params},)))
        for check in report.checks:
            prev = worst.get(check.condition_id, -math.inf)
            worst[check.condition_id] = float(np.maximum(prev, check.max_residual))
        if report.overall_pass:
            passed += 1
        else:
            failed += 1
            failures.append({"params": params, "failed": report.failed_checks()})
    return {
        "family": family, "surface_family": surface_family, "n": n, "seed": seed,
        "sampler": dict(sorted(cfg.items())), "valid": valid, "invalid": invalid,
        "passed": passed, "failed": failed,
        "worst_residuals": {k: harness.json_residual(v) for k, v in sorted(worst.items())},
        "failures": failures,
    }


@pytest.mark.parametrize("family", ["Ex7_1", "Ex8_1", "Ex8_2"])
def test_batched_sweep_equals_verify_per_draw(family):
    summary = sweep(family, n=50, rng_seed=0)
    assert summary["valid"] * 81 > diffgeo.BLOCK_NODES  # several batches
    assert dumps_json(summary) == dumps_json(draw_by_draw(family, 50, 0))


@pytest.mark.parametrize("family, tol", [("Ex7_1", "3e-13"), ("Ex8_1", "1e-14"),
                                         ("Ex8_2", "3e-15")])
def test_batch_mixing_passing_and_failing_draws(monkeypatch, family, tol):
    monkeypatch.setenv("LMS_DEFAULT_TOL", tol)
    summary = sweep(family, n=50, rng_seed=0)
    assert 0 < summary["passed"] < summary["valid"]
    assert dumps_json(summary) == dumps_json(draw_by_draw(family, 50, 0))


def test_degenerate_draw_in_a_batch_changes_only_that_draw(monkeypatch):
    # a sphere_b fold and a hyp_iii fold, whose joint conditions are checks
    # of the grid pass that a degenerate draw still reports
    for family, kept in (("Ex7_1", ["lightcone-z", "speed-z", "acc-null-z", "jerk-nonzero-z"]),
                         ("Ex8_2", ["iii.1", "iii.2", "iii.3"])):
        plain = sweep(family, n=12, rng_seed=3)
        cfg = harness._sampler_config(family, None)
        rng = np.random.default_rng(3)
        params = [p for p in (draw_params(family, cfg, rng) for _ in range(12))
                  if validate_family(ParamFamily(family, p)).ok]
        assert plain["valid"] == len(params) >= 5
        # the third valid draw's L at the first grid node marks its jets
        spec = SurfaceSpec(family=FAMILIES[family]["surface"], grid=tuple(cfg["grid"]),
                           curves=({"family_id": family, "params": params[2]},))
        curves, _ = harness._resolve_curves(spec)
        surface = harness._premise_phase(spec, curves, default_tolerances())[2]
        x0, y0 = surface.grid(spec.grid)[0]
        marker = surface.position(x0, y0)[0]
        table = diffgeo._table

        def degenerate_third(surface, jet, marker=marker, table=table):
            if np.any(jet.L[..., 0] == marker):
                raise DegenerateMetricError("test: the third draw is degenerate")
            return table(surface, jet)

        with monkeypatch.context() as patch:
            patch.setattr(diffgeo, "_table", degenerate_third)
            summary = sweep(family, n=12, rng_seed=3)
            assert dumps_json(summary) == dumps_json(draw_by_draw(family, 12, 3))
            assert summary["failures"] == [{"params": params[2], "failed": ["metric-signature"]}]
            assert (summary["passed"], summary["failed"]) == (len(params) - 1, 1)
            # the degenerate draw keeps its premise or joint-condition reports
            assert [c.condition_id for c in verify(spec).checks] == kept + ["metric-signature"]


def test_sweep_checks_full_batches(monkeypatch):
    # a fold is one block of the FD subgrid pass: 40 draws at 5x5
    checks = harness._check_rows
    sizes = []

    def recording(spec, surfaces, tols, stacked=None):
        sizes.append(len(surfaces))
        return checks(spec, surfaces, tols, stacked)

    monkeypatch.setattr(harness, "_check_rows", recording)
    sweep("Ex7_1", n=90, rng_seed=0)
    per = diffgeo.BLOCK_NODES // 25
    assert sizes == [per] * (90 // per) + [90 % per]


def test_sweep_stacks_a_fold_once_for_both_passes(monkeypatch):
    # each source is stacked once per fold of 40 sphere_b draws: the
    # premises, the grid pass and the subgrid pass all take draws of it
    from lorentzmin.curves import _Stack

    stacks = []
    init = _Stack.__init__

    def counted(self, curves):
        stacks.append(len(curves))
        init(self, curves)

    monkeypatch.setattr(_Stack, "__init__", counted)
    assert sweep("Ex7_1", n=50, rng_seed=0)["valid"] == 50
    assert stacks == [40, 10]


def test_sweep_validates_each_draw_once(monkeypatch):
    # one array call of the family's formulas per chunk of draws
    for family, n, chunks in (("Ex7_1", 10, [10]), ("Ex7_2", 2100, [1024, 1024, 52])):
        calls = []
        coeffs = FAMILIES[family]["_coeffs"]

        def counted(*args, coeffs=coeffs):
            calls.append(len(args[0].squares))
            return coeffs(*args)

        monkeypatch.setitem(FAMILIES[family], "_coeffs", counted)
        summary = sweep(family, n=n, rng_seed=0)
        assert summary["valid"] + summary["invalid"] == n
        assert calls == chunks


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chunked_draws_replay_the_scalar_draws(data):
    # every mode, with configs that reject most tries (a min_gap near half
    # the box, a qr_box where X(q, r) <= 0 is common) and try limits small
    # enough that a draw runs out of tries
    family = data.draw(st.sampled_from(sorted(FAMILIES)), label="family")
    tries = data.draw(st.sampled_from([1, 3, 30, sampling.MAX_SAMPLER_TRIES]), label="tries")
    mode = FAMILIES[family]["sampler"]["mode"]
    if mode == "sorted_box":
        lo, width = data.draw(st.floats(0.01, 3.0)), data.draw(st.floats(0.01, 5.0))
        near = 0.99 if tries < sampling.MAX_SAMPLER_TRIES else 0.6
        over = {"pqr_box": [lo, lo + width],
                "min_gap": data.draw(st.floats(0.0, near), label="gap") * width / 2}
    elif mode == "chain":
        over = {"qr_box": sorted(data.draw(st.lists(st.floats(-100, 100), min_size=2,
                                                    max_size=2), label="qr_box"))}
    else:
        over = {"rel": data.draw(st.floats(0.0, 1.0), label="rel")}
    cfg = harness._sampler_config(family, over)
    seed, n = data.draw(st.integers(0, 2**32 - 1), label="seed"), data.draw(st.integers(1, 700))
    names = FAMILIES[family]["params"]

    def scalar():
        rng, drawn = np.random.default_rng(seed), []
        try:
            for _ in range(n):
                params = draw_params(family, cfg, rng)
                drawn.append([params[k] for k in names])
        except InvalidInputError as exc:
            return drawn, str(exc)
        return drawn, rng.uniform()

    def chunked():
        rng, drawn = np.random.default_rng(seed), []
        try:
            for chunk in sampling._draw_chunks(family, cfg, rng, n):
                assert len(chunk) <= diffgeo.BLOCK_NODES
                drawn += chunk.tolist()
        except InvalidInputError as exc:
            return drawn, str(exc)
        return drawn, rng.uniform()  # the stream goes on where the scalar one does

    with mock.patch.object(sampling, "MAX_SAMPLER_TRIES", tries):
        assert chunked() == scalar()


def test_a_chunk_of_rejecting_draws_stops_at_its_value_cap():
    # about 340 tries of three values per set: a chunk takes about sixteen
    # sets before CHUNK_VALUES, and the next chunk goes on where it stopped
    cfg = harness._sampler_config("Ex7_1", {"min_gap": 1.2})
    rng = np.random.default_rng(0)
    chunks = [c.tolist() for c in sampling._draw_chunks("Ex7_1", cfg, rng, 60)]
    assert len(chunks) > 2 and sum(map(len, chunks)) == 60
    scalar = np.random.default_rng(0)
    assert sum(chunks, []) == [[p[k] for k in FAMILIES["Ex7_1"]["params"]]
                               for p in (draw_params("Ex7_1", cfg, scalar) for _ in range(60))]
    assert rng.uniform() == scalar.uniform()


def test_chain_sweep_holds_one_chunk_of_parameters():
    def peak(n):
        tracemalloc.start()
        try:
            summary = sweep("Ex7_2", n=n, rng_seed=0)
            return tracemalloc.get_traced_memory()[1], summary
        finally:
            tracemalloc.stop()

    peak(10)  # first-call allocations
    one_chunk, _ = peak(diffgeo.BLOCK_NODES)
    many, summary = peak(100_000)
    assert summary["invalid"] == 100_000
    # a chunk's arrays live until the next chunk's replace them, so the peak
    # of 196 chunks may reach two chunks' worth, never more
    assert many < 2 * one_chunk


#: parameters inside and outside the families' domains, down to 0 and
#: below, and up to and past SAMPLER_BOUND, where squares times the
#: coefficients overflow to inf or NaN, and where a square itself raises
#: OverflowError (beyond about 1.3e154)
PARAMS = (st.floats(-0.5, 4.0) | st.floats(1e140, 1e160)
          | st.sampled_from([0.0, -0.0, -1.0, 1e-200, sampling.SAMPLER_BOUND, 1e155]))


def _same_verdict(family, params):
    """The sweep's verdict on a draw (``_valid_rows``) is validate_family's,
    and a valid draw's validation from those coefficients is the full one,
    bit for bit."""
    rows, coeffs = _valid_rows(family, np.array([[params[k] for k in
                                                  FAMILIES[family]["params"]]], dtype=float))
    validation = validate_family(ParamFamily(family, params))
    assert (rows.size == 1) == validation.ok
    if validation.ok:
        assert validate_family(ParamFamily(family, params), coeffs[0]) == validation
        assert [np.float64(v).tobytes() for part in coeffs[0] for v in part.values()] == [
            np.float64(v).tobytes() for part in (validation.radicands, validation.denominators)
            for v in part.values()]
    return validation


#: a valid parameter set of each family; draws within 10% of it are often valid
CENTRES = {"Ex7_1": {"a": 1, "p": 3, "q": 1, "r": 2}, "Ex7_2": {"p": 3, "q": 1.5, "r": 1},
           "Ex8_1": {"a": 1, "b": 1.1, "p": 1, "q": 1.5},
           "Ex8_2": dict(zip("abpqrs", [math.sqrt(0.5)] * 2 + [1.1, 1.5, 1.1, 1.5]))}


@given(st.sampled_from(sorted(FAMILIES)), st.booleans(), st.data())
def test_sweep_rejects_exactly_the_draws_validation_rejects(family, near, data):
    _same_verdict(family, {
        k: CENTRES[family][k] * data.draw(st.floats(0.9, 1.1), label=k) if near
        else data.draw(PARAMS, label=k) for k in FAMILIES[family]["params"]})


@pytest.mark.parametrize("family, params, ok, edge", [
    # q^2(2+a^2) - (4+a^2) is exactly 0, which passes
    ("Ex8_1", {"a": 0.5, "b": 1.1, "p": 1.0, "q": math.sqrt(4.25 / 2.25)}, True, 0.0),
    ("Ex7_1", {"a": 0.0, "p": 3, "q": 1, "r": 2}, False, None),
    ("Ex8_2", {"a": -0.7, "b": 0.7, "p": 1.1, "q": 1.5, "r": 1.1, "s": 1.5}, False, None),
    # at SAMPLER_BOUND a^2 p^2 is inf: times p^2 - r^2 = 0 it is NaN, which fails ...
    ("Ex7_1", {"a": 1e150, "p": 1e150, "q": 1, "r": 1e150}, False, math.nan),
    # ... and an inf radicand passes
    ("Ex7_1", {"a": 1e150, "p": 1e150, "q": 1, "r": 2}, True, math.inf),
    # beyond it p**2 raises OverflowError
    ("Ex7_1", {"a": 1, "p": 1e155, "q": 1, "r": 2}, False, "out of range"),
])
def test_sweep_rejection_edges(family, params, ok, edge):
    validation = _same_verdict(family, params)
    assert validation.ok is ok
    if isinstance(edge, str):
        assert not validation.radicands and edge in validation.failures[0]
    elif edge is not None:
        rads = list(validation.radicands.values())
        assert any(v == edge or (math.isnan(v) and math.isnan(edge)) for v in rads)


def test_verify_evaluates_the_subgrid_jet_once(monkeypatch):
    nodes = {"jet": [], "tangent": []}

    def counting(z, domain, **kwargs):
        surface = sphere_case_b(z, domain, **kwargs)

        def counted(name):
            def evaluate(x, y, *d):
                nodes[name].append(np.broadcast(x, y).size)
                return getattr(surface, name)(x, y, *d)
            return evaluate
        return dataclasses.replace(surface, jet=counted("jet"), tangent=counted("tangent"))

    monkeypatch.setattr(harness, "sphere_case_b", counting)
    report = verify(SPHERE_71)
    assert report.overall_pass
    # jets on the grid and the subgrid centres; only L_x and L_y at the
    # subgrid's 4 E-field offsets, one cross, in one call
    assert sorted(nodes["jet"]) == [25, 21 * 21]
    assert nodes["tangent"] == [4 * 25]


def test_efield_checks_its_nodes_once():
    z = lorentzmin.make_example(ParamFamily("Ex7_1", {"a": 1, "p": 3, "q": 1, "r": 2}))
    surface = sphere_case_b(z, SPHERE_DOMAIN)
    calls = []

    def margin(x, y):
        calls.append(np.shape(x))
        return abs(x + y)

    counted = dataclasses.replace(surface, singular_margin=margin)
    x, y = np.meshgrid(np.linspace(0.2, 1.0, 5), np.linspace(0.2, 1.0, 5), indexing="ij")
    exact = diffgeo._efield(surface, x, y)
    assert all(np.array_equal(a, b) for a, b in zip(diffgeo._efield(counted, x, y), exact))
    assert calls == [(5, 5)]



def test_sweep_holds_one_batch_of_surfaces(monkeypatch):
    phases, checks = harness._premise_phases, harness._check_rows
    made, live = [], []

    def tracked(spec, draws, tols):
        out, stacked = phases(spec, draws, tols)
        made.extend(weakref.ref(surface) for _, _, surface in out if surface is not None)
        made.append(weakref.ref(stacked))
        return out, stacked

    def counting(spec, surfaces, tols, stacked=None):
        gc.collect()
        live.append(sum(ref() is not None for ref in made))
        return checks(spec, surfaces, tols, stacked)

    monkeypatch.setattr(harness, "_premise_phases", tracked)
    monkeypatch.setattr(harness, "_check_rows", counting)
    sweep("Ex7_1", n=50, rng_seed=0)
    per = diffgeo._draws_per_block(harness.FD_SUBGRID)
    # a fold's draws and their stacked surface
    assert live == [per + 1] * (50 // per) + [50 % per + 1]


@pytest.mark.parametrize("name", sorted(p.stem for p in SPEC_DIR.glob("*.json")))
def test_grid_values_blocks_whole_draws(monkeypatch, name):
    spec = SurfaceSpec.from_dict({**json.loads((SPEC_DIR / f"{name}.json").read_text()),
                                  "grid": [9, 9]})
    curves, _ = harness._resolve_curves(spec)
    surface = harness._premise_phase(spec, curves, default_tolerances())[2]
    forms, blocks = diffgeo._forms, []

    def recording(surface, x, y, curvature="jet", d=None):
        jet, f = forms(surface, x, y, curvature, d)
        blocks.append(jet.L.shape[:-1])
        return jet, f

    monkeypatch.setattr(diffgeo, "_forms", recording)
    k = [lambda x, y, jet, f: f.K]
    for shape, curvature, per in (((9, 9), "jet", 12), ((5, 5), "stencil", 40),
                                  ((30, 30), "jet", 1)):
        assert diffgeo._draws_per_block(shape) == per
        blocks.clear()
        (alone,) = diffgeo.grid_values(surface, shape, k, curvature=curvature)
        single = list(blocks)
        blocks.clear()
        (many,) = diffgeo.grid_values(_stacked([surface] * 13), shape, k, curvature=curvature)
        assert np.array_equal(many, np.broadcast_to(alone, (13,) + alone.shape))
        # whole draws of one stack per block, one draw where a grid block holds one
        stacks = [(d,) + shape for d in [per] * (13 // per) + [13 % per] if d]
        assert blocks == (stacks if per > 1 else [(1,) + b for b in single] * 13)
        assert all(math.prod(b) <= diffgeo.BLOCK_NODES for b in blocks)


def test_batch_error_other_than_a_degenerate_metric_propagates(monkeypatch):
    table = diffgeo._table

    def broken_on_stacks(surface, jet):
        if jet.L.ndim > 3:
            raise ValueError("test: a broadcasting bug in the batch code")
        return table(surface, jet)

    monkeypatch.setattr(diffgeo, "_table", broken_on_stacks)
    with pytest.raises(ValueError, match="broadcasting bug"):
        sweep("Ex7_1", n=12, rng_seed=3)


def test_draws_of_two_term_structures_are_checked_one_by_one():
    # this q zeroes a radicand exactly, which validation allows; two of the
    # curve's components then vanish, so its terms cannot stack with a
    # draw's whose radicand is positive
    a = 0.5
    q = math.sqrt((4 + a * a) / (2 + a * a))
    tols = default_tolerances()
    specs = [SurfaceSpec(family="hyp_ii", grid=(9, 9), curves=(
        {"family_id": "Ex8_1", "params": {"a": a, "b": 1.1, "p": 1.0, "q": qq}},))
        for qq in (1.5, q)]
    surfaces = [harness._premise_phase(s, harness._resolve_curves(s)[0], tols)[2] for s in specs]
    assert [len(s.sources[0]._plan) for s in surfaces] == [8, 6]
    batch = harness._checks(specs[0], surfaces, tols)
    assert batch == [harness._checks(specs[0], [s], tols)[0] for s in surfaces]
    assert all(r.passed for checks in batch for r in checks)


def test_stacked_curves_evaluate_each_curve_bit_for_bit():
    from lorentzmin.curves import _Stack, make_example
    pairs = [make_example(ParamFamily("Ex8_2", {"a": a, "b": 0.7, "p": 1.1, "q": 1.5,
                                                "r": 1.1, "s": 1.5})) for a in (0.6, 0.65, 0.7)]
    t = np.linspace(-1.0, 1.0, 12).reshape(2, 1, 2, 3)  # offsets, draws, rows, cols
    for curves in zip(*pairs):
        stack = _Stack(curves)
        stacked = stack.derivatives(t, range(4))
        assert stacked.shape == (4, 2, 3, 2, 3, 14)
        for b, curve in enumerate(curves):
            assert np.array_equal(stacked[:, :, b], curve.derivatives(t[:, 0], range(4)))
            assert np.array_equal(stack.at(t, 2)[:, b], curve.at(t[:, 0], 2))
    with pytest.raises(InvalidInputError, match="term structure"):
        _Stack(pairs[0])  # z and w of one pair have different terms
