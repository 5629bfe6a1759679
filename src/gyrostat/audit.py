"""Randomized cross-check of the equations of motion against the brackets.

The hand-written right-hand sides in :mod:`gyrostat.dynamics` and the
bracket-reconstructed Hamiltonian vector fields in :mod:`gyrostat.poisson`
are two independent routes to the same derivative.  The audit samples
phase points with every component uniform in [-5, 5], drawn from the
pinned :class:`gyrostat.rng.SplitMix64` stream (components in coordinate
order within each sample), and reports the worst componentwise relative
discrepancy, with denominators floored at 1.

Samples are drawn and checked in blocks of at most ``BLOCK_SAMPLES`` = 1024,
as ``(dim, n)`` arrays with one phase point per column.  The stream is the
same as one draw per component in order, and the report is the one a
sample-by-sample scan gives, ties going to the earliest sample.  A block
array is at most 8 x 1024 doubles (64 KiB), laid out in C order so that
every row operation reads contiguous memory, and only one block is alive
at a time.  The largest array is the block's finite-difference probes,
8 x 8 x 1024 doubles (512 KiB; see :func:`gyrostat.poisson.fd_gradient`):
an se3 audit peaks near 0.95 MiB of traced memory (940 KiB at 1000
samples, 971 KiB at 20000; so3 472 and 491 KiB; ``tracemalloc``).

An overflow is reported, never warned of: an energy that is not finite
at a probe is the ``ValueError`` of :func:`gyrostat.poisson.fd_gradient`,
and a NaN discrepancy, where the direct field and the oracle overflow
together, the audit's own.  Each block's discrepancy is taken with numpy's
overflow and invalid-value warnings off.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from .algebra import _as_integer
from .dynamics import _flat_system
from .model import GravityParams, InertiaParams, ModelKind
from .poisson import (
    BracketKind,
    hamiltonian_field_se3,
    hamiltonian_field_so3,
    hamiltonian_vector_field_via_bracket,
)
from .rng import SplitMix64

__all__ = ["AUDIT_TOL", "SAMPLE_LOW", "SAMPLE_HIGH", "bracket_oracle_audit"]

AUDIT_TOL = 1e-6
SAMPLE_LOW = -5.0
SAMPLE_HIGH = 5.0
BLOCK_SAMPLES = 1024

# The audit's rule for its sample count, which the CLI's --samples asks too.
_check_samples = functools.partial(_as_integer, "samples", ok=lambda n: n >= 1, rule=">= 1")

# The oracle side of each model: its bracket, and its energy as a field
# without an analytic gradient.  The energy is looked up by name at the
# call, so a wrapper set on this module's attribute sees the call.
_ORACLES = {
    ModelKind.SO3: (
        BracketKind.PRODUCT_SO3,
        lambda params, grav: hamiltonian_field_so3(params),
    ),
    ModelKind.SE3: (
        BracketKind.PRODUCT_SE3,
        lambda params, grav: hamiltonian_field_se3(params, grav),
    ),
}


def bracket_oracle_audit(
    kind: ModelKind,
    params: InertiaParams,
    *,
    grav: Optional[GravityParams] = None,
    samples: int = 1000,
    seed: int = 42,
) -> dict:
    """Compare the uncontrolled equations against the bracket oracle.

    The energy field is handed to the bracket without an analytic
    gradient, so the oracle side rests entirely on finite differences and
    shares no derivative code with the equations of motion.  The settings
    are keyword-only; the CLI and the config parser read their defaults here.

    Returns a JSON-ready report with the worst relative discrepancy, the
    sample that produced it, and a pass flag against ``AUDIT_TOL``.

    Raises
    ------
    ValueError
        On a `samples` that is not an integer >= 1, a missing gravity block
        for se3, an energy that is not finite at a probe of
        :func:`gyrostat.poisson.fd_gradient`, or a sample whose discrepancy
        is NaN (the direct field and the oracle overflowing together).
    """
    samples = _check_samples(samples)
    # The free field of dynamics takes (dim, n) blocks too.
    direct_field, _jac = _flat_system(kind, params, grav, None)
    bracket_kind, energy = _ORACLES[kind]
    h = energy(params, grav)
    dim = h.dim
    rng = SplitMix64(seed)

    worst = -1.0
    worst_sample = None
    worst_index = -1
    for start in range(0, samples, BLOCK_SAMPLES):
        n = min(BLOCK_SAMPLES, samples - start)
        # Draws run sample by sample, components in order: row k of the
        # (n, dim) reshape is sample k, so its transpose has one per column.
        x = np.ascontiguousarray(
            rng.uniforms(n * dim, SAMPLE_LOW, SAMPLE_HIGH).reshape(n, dim).T
        )
        rel = _worst_relative_discrepancy(direct_field, bracket_kind, h, x)
        # argmax takes the first of equal maxima and the strict > keeps the
        # earlier block: the first occurrence overall, as a scan would.
        j = int(np.argmax(rel))
        if rel[j] != rel[j]:  # a NaN, which argmax picks first and > would skip
            raise ValueError(f"discrepancy is NaN at sample {start + j}: the field overflows")
        if rel[j] > worst:
            worst = float(rel[j])
            worst_sample = x[:, j].tolist()
            worst_index = start + j
    return {
        "model": kind.value,
        "samples": samples,
        "seed": int(seed),
        "tolerance": AUDIT_TOL,
        "max_rel_discrepancy": worst,
        "worst_sample_index": worst_index,
        "worst_sample": worst_sample,
        "passed": bool(worst < AUDIT_TOL),
    }


def _worst_relative_discrepancy(direct_field, bracket_kind, h, x) -> np.ndarray:
    """Per column of the block `x`: max_i |direct_i - via_i| / max(1, |direct_i|), unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
        via = hamiltonian_vector_field_via_bracket(bracket_kind, h, x)
        direct = np.zeros_like(via)  # the last row, dl/dt, stays 0
        direct[:-1] = direct_field(x)[:-1]
        # In place, so that a block holds few arrays at once.
        err = np.subtract(direct, via, out=via)
        np.abs(err, out=err)
        den = np.abs(direct, out=direct)
        np.maximum(den, 1.0, out=den)
        err /= den
        return err.max(axis=0)
