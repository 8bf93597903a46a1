"""Shared fixtures: seeded RNG, small geometries, and a fast scenario factory."""

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from tmems.fields import cell_factor
from tmems.geometry import EmsGeometry
from tmems.isac import Scenario
from tmems.modulation import ControlMode, PulseSchedule, ReflectionStates
from tmems.synthesis import PsoConfig

# Property tests stay deterministic and leave nothing in the checkout: a
# fixed example sequence, no example database, no per-example time limit.
settings.register_profile("tier1", database=None, deadline=None, derandomize=True,
                          max_examples=25)
settings.load_profile("tier1")


def pytest_configure(config):
    """Hypothesis caches the constants it mines from the source, at test
    collection, under its home directory; that defaults to .hypothesis/ in
    the working directory, so point it at a temporary one instead."""
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def ideal():
    return ReflectionStates.ideal()


@pytest.fixture
def geom4():
    return EmsGeometry(rows=4, cols=4)


def random_schedule(rng, rows, cols, period_s=1e-6):
    return PulseSchedule(period_s=period_s,
                         rise=rng.random((rows, cols)),
                         duty=rng.random((rows, cols)))


def direct_sum(geometry, tensors, incidence, u, v):
    """The radiation sum, one cell at a time, toward directions (u[i], v[i]).

    tensors (..., rows, cols, 2, 2) are the cells' reflection tensors, say
    harmonic_tensors of a schedule, or the on and off states of an instant;
    the result is (..., n, 2). Each cell's drive and steering phase come
    from its own position, with no table or separable factor of the
    package."""
    k0 = geometry.k0
    xy = geometry.cell_xy_m
    u, v = np.atleast_1d(u), np.atleast_1d(v)
    tensors = np.asarray(tensors)
    tensors = tensors.reshape(tensors.shape[:-4] + (geometry.n_cells, 2, 2))
    m2 = incidence.polarization_matrix
    jones = np.asarray(incidence.jones, dtype=complex)
    acc = np.zeros(tensors.shape[:-3] + (u.size, 2), dtype=complex)
    for n, (x, y) in enumerate(xy):
        drive = incidence.amplitude_v_m * np.exp(1j * k0 * (incidence.u * x + incidence.v * y))
        steer = np.exp(1j * k0 * (u * x + v * y))
        acc += steer[:, None] * (drive * (tensors[..., n, :, :] @ jones) @ m2.T)[..., None, :]
    return (1j * k0 / (4.0 * np.pi) * cell_factor(geometry, u, v))[:, None] * acc


@pytest.fixture
def make_schedule():
    return random_schedule


@pytest.fixture
def fast_scenario():
    """Factory for small scenarios that keep pipeline tests under a second."""

    def make(mode=ControlMode.DELTA, rows=6, cols=6, theta_inc_deg=40.0,
             theta_refl_deg=-20.0, iterations=30, swarm=8, seed=7, synth_grid_n=32,
             period_s=1e-6, **kw):
        return Scenario(
            geometry=EmsGeometry(rows=rows, cols=cols),
            states=ReflectionStates.ideal(),
            period_s=period_s,
            mode=mode,
            theta_inc_deg=theta_inc_deg,
            theta_refl_deg=theta_refl_deg,
            pso=PsoConfig(swarm_size=swarm, iterations=iterations, seed=seed,
                          stagnation_window=0),
            synth_grid_n=synth_grid_n,
            **kw,
        )

    return make
