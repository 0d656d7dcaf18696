"""The driver's contract as one property: row i of any batch is bit for bit its one-row run.

Hypothesis draws a small grid at n = 1 or 2, one to four entries (each with its own
viscosity, dt, horizon, record cadence and row count), a fresh start or a resume at step k
(a draw block's first slot among them), and rows that start at 1e160 and so abort at
their first rotation.  The batch is run once through ``continue_trajectory`` and each
row once on its own.  Every sink call, every abort, the final state and every draw must
be those of the one-row runs, and neither the batch nor a one-row run may draw a block twice.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_lab.forcing import NoiseSpec, RngStream, ou_block_steps
from cascade_lab.integrators import SimParams, State, continue_trajectory
from cascade_lab.spectral import GridSpec, SpectralField

GRIDS = {1: GridSpec(1, 16, 8), 2: GridSpec(2, 8, 4)}
SPECS = {n: NoiseSpec.power(grid, 1.0) for n, grid in GRIDS.items()}  # every mode forced: short draw blocks
SEED = 41


@st.composite
def batches(draw):
    n = draw(st.sampled_from((1, 2)))
    K = ou_block_steps(SPECS[n].forced.size)
    start = draw(st.one_of(st.just(0), st.sampled_from((K - 1, K, 2 * K)), st.integers(1, 2 * K)))
    nonlinear = draw(st.booleans())
    entries = []
    for _ in range(draw(st.integers(1, 4))):
        steps = start + draw(st.integers(1, 2 * K))
        nu = draw(st.sampled_from((0.5, 0.4, 0.25)))
        dt = draw(st.sampled_from((0.01, 0.02, 0.004 / nu)))  # the last as in a dt_slow sweep
        params = SimParams(
            nu=nu, dt=dt, T=steps * dt,
            record_every=draw(st.integers(1, K + 1)), seed=SEED, nonlinear=nonlinear,
        )
        assert params.n_steps == steps
        blown = draw(st.lists(st.booleans(), min_size=1, max_size=3))
        entries.append((params, blown))
    return n, start, entries


def field(grid, row: int, blown: bool) -> np.ndarray:
    """One row's coefficients: small and random, or mode 1 at 1e160, whose |u|^2 overflows."""
    if blown:
        c = np.zeros((1, *grid.coeff_shape), dtype=complex)
        c[(0,) * (1 + grid.n)] = 1e160
        return c
    g = np.random.default_rng(row)
    return 0.3 * (g.normal(size=(1, *grid.coeff_shape)) + 1j * g.normal(size=(1, *grid.coeff_shape)))


def run(grid, spec, coeffs, sids, start, params, sinks):
    """``continue_trajectory`` from step ``start`` on the rows ``coeffs``; (final, aborts, draws made)."""
    state = State.of(SpectralField(grid, coeffs), tuple(RngStream(SEED, sid) for sid in sids), start)
    draws = []
    normals = RngStream.normals

    def counted(rng, *a, **k):
        draws.append((rng.stream_id, *a))
        return normals(rng, *a, **k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RngStream, "normals", counted)
        final, aborts = continue_trajectory(state, spec, params, sinks)
    return final, aborts, draws


def recorder(calls: list):
    """A sink that keeps, per call, its step, its rows' stream ids, their closed coefficient bytes and the params."""
    def sink(state, params):
        calls.append((state.step_index, [r.stream_id for r in state.rngs], [c.tobytes() for c in state.u.coeffs], params))
    return sink


@settings(max_examples=100, derandomize=True, deadline=None)
@given(batches())
def test_every_row_of_a_batch_is_its_one_row_run(case):
    n, start, entries = case
    grid, spec = GRIDS[n], SPECS[n]
    rows = [(j, sid, blown) for j, (_, flags) in enumerate(entries) for sid, blown in enumerate(flags)]
    coeffs = np.concatenate([field(grid, 100 * j + sid, blown) for j, sid, blown in rows])
    calls = [[] for _ in entries]
    sinks = [recorder(c) for c in calls]
    final, aborts, draws = run(
        grid, spec, coeffs, [sid for _, sid, _ in rows], start,
        tuple(entries[j][0] for j, _, _ in rows), tuple(sinks[j] for j, _, _ in rows),
    )

    expected_calls = [{} for _ in entries]  # per entry: step -> (stream ids, bytes, params)
    expected_aborts, expected_draws, finals = [], set(), []
    for i, (j, sid, _) in enumerate(rows):
        params = entries[j][0]
        one_calls = []
        one, one_aborts, one_draws = run(grid, spec, coeffs[i : i + 1], [sid], start, params, recorder(one_calls))
        assert len(one_draws) == len(set(one_draws)), "a one-row run drew a block twice"
        expected_draws.update(one_draws)
        for step, sids, data, p in one_calls:
            got = expected_calls[j].setdefault(step, ([], [], p))
            got[0].extend(sids)
            got[1].extend(data)
        for abort in one_aborts:
            last = abort.last_state
            expected_aborts.append((last.step_index, i, sid, last.u.coeffs.tobytes(), str(abort)))
        if one is not None:
            finals.append((params.n_steps, one))

    for entry_calls, expected in zip(calls, expected_calls):
        assert entry_calls == [(step, *expected[step]) for step in sorted(expected)]
    got_aborts = [(a.last_state.step_index, a.last_state.rngs[0].stream_id, a.last_state.u.coeffs.tobytes(), str(a))
                  for a in aborts]
    assert got_aborts == [(k, sid, data, text) for k, _, sid, data, text in sorted(expected_aborts, key=lambda a: a[:2])]
    assert len(draws) == len(set(draws)) and set(draws) == expected_draws  # a key shared by rows is drawn once
    if not finals:
        assert final is None
        return
    last = max(steps for steps, _ in finals)
    ones = [one for steps, one in finals if steps == last]
    assert final.step_index == last and len(final.rngs) == len(ones)
    assert final.c.tobytes() == np.concatenate([one.c for one in ones], axis=1).tobytes()
    assert final.u.coeffs.tobytes() == np.concatenate([one.u.coeffs for one in ones]).tobytes()
