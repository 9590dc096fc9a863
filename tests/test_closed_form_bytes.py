"""Byte guard for the closed-form path (``run_curve`` with no Monte Carlo).

Each curve is recomputed here from the expressions the closed form is
defined by, written out with plain numpy and scipy: the model matrix, its
complex128 copy and real ``eigvalsh``, the scaled covariances, the cascade
traces of each design, the Gamma moment match and ``gammainc``.  Every
column and matrix must match byte for byte, so a rewrite that reorders a
sum or a product, or takes another numpy loop, fails here on any BLAS
build.
"""

import dataclasses

import numpy as np
import pytest
from scipy import special

from irslink.correlation import _distances
from irslink.curves import run_curve
from irslink.phaseshift import Equal, Fixed, UniformRandom
from irslink.scenario import load_scenario
from irslink.units import db_to_linear


def _model(sc) -> np.ndarray:
    n = sc.n
    if sc.model == "sinc":
        geometry = sc.geometry()
        return np.sinc(2.0 * _distances(geometry) / geometry.wavelength)
    if sc.model == "exponential":
        i = np.arange(n)
        return sc.exp_magnitude ** np.abs(i[:, None] - i[None, :])
    return np.eye(n)


def _equal_traces(r_sr, r_rd):
    t1 = np.sum(r_rd * r_sr.T)
    prod = r_rd @ r_sr
    t2 = np.sum(prod * prod.T)
    return t1.real, t1.real * t1.real, t2.real


def _fixed_traces(r_sr, r_rd, phases):
    inner = (np.conj(phases)[None, :, None] * r_sr) * phases[None, None, :]
    c = r_rd @ inner
    n = r_rd.shape[0]
    t1 = np.trace(c, axis1=-2, axis2=-1)[0].real
    t2 = (c * np.swapaxes(c, -1, -2)).reshape(1, n * n).sum(axis=-1)[0].real
    return t1, t1 * t1, t2


def _uniform_traces(r_sr, r_rd):
    a = r_rd * r_sr
    diag_sq = np.sum(np.real(np.diag(a)) ** 2)
    nu = complex(np.trace(a)).real
    eta = nu * nu + float(np.sum(np.abs(a) ** 2)) - diag_sq
    b = r_rd * np.diag(r_sr)[None, :]
    c = r_sr * np.diag(r_rd)[None, :]
    quad = np.array([np.sum(b * b.T), np.sum(c * c.T)]).real
    return nu, eta, quad[0] + quad[1] - diag_sq


def _expected(sc, design, model, eig_range):
    beta_sr = db_to_linear(sc.beta_sr_dhdv_db)
    beta_rd = db_to_linear(sc.beta_rd_dhdv_db)
    r_sr, r_rd = beta_sr * model, beta_rd * model
    if isinstance(design, Equal):
        t1, t1_sq, t2 = _equal_traces(r_sr, r_rd)
    elif isinstance(design, Fixed):
        t1, t1_sq, t2 = _fixed_traces(r_sr, r_rd, np.exp(1j * design.thetas))
    else:
        t1, t1_sq, t2 = _uniform_traces(r_sr, r_rd)
    beta_sd = sc.beta_sd
    mean = beta_sd + t1
    variance = beta_sd * beta_sd + 2.0 * beta_sd * t1 + t1_sq + 2.0 * t2
    k, w = mean * mean / variance, variance / mean
    z = sc.snr_threshold(sc.xi_grid())
    return {
        "p_closed_form": special.gammainc(k, z / w),
        "k_a": np.full(z.shape, k),
        "w_a": np.full(z.shape, w),
        "r_sr": r_sr,
        "r_rd": r_rd,
        "eig_sr": np.array([beta_sr * eig_range[0], beta_sr * eig_range[1]]),
        "eig_rd": np.array([beta_rd * eig_range[0], beta_rd * eig_range[1]]),
    }


@pytest.mark.parametrize("side", [4, 8, 14, 20])  # N = 16, 64, 196, 400
@pytest.mark.parametrize("model_name", ["sinc", "exponential", "uncorrelated"])
@pytest.mark.parametrize("preset", ["fig2a", "fig2b", "fig2c"])
def test_closed_form_bytes_match_the_written_out_expressions(preset, model_name, side):
    base = dataclasses.replace(load_scenario(preset), n_h=side, n_v=side, model=model_name)
    entries = _model(base)
    eigs = np.linalg.eigvalsh(entries)
    eig_range = (float(eigs[0]), float(eigs[-1]))
    model = np.array(entries, dtype=np.complex128)
    thetas = np.random.default_rng(side).uniform(-np.pi, np.pi, side * side)
    for design in (Equal(0.3), Fixed(thetas), UniformRandom(17)):
        sc = dataclasses.replace(base, design=design)
        want = _expected(sc, design, model, eig_range)
        curve = run_curve(sc, 0, 1)
        r_sr, r_rd = sc.covariances()
        got = {
            "p_closed_form": curve.p_closed_form,
            "k_a": curve.k_a,
            "w_a": curve.w_a,
            "r_sr": r_sr.entries,
            "r_rd": r_rd.entries,
            "eig_sr": np.array(r_sr.eig_range),
            "eig_rd": np.array(r_rd.eig_range),
        }
        for key, value in want.items():
            assert got[key].tobytes() == value.tobytes(), (design.kind, key)
