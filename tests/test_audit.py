"""The bracket-oracle audit: pinned reports and the scan it must equal."""

import hashlib

import numpy as np
import pytest

from gyrostat import audit
from gyrostat.audit import BLOCK_SAMPLES, bracket_oracle_audit
from gyrostat.dynamics import reduced_rhs_se3, reduced_rhs_so3
from gyrostat.model import (
    GravityParams,
    InertiaParams,
    ModelKind,
    se3_state_from_vector,
    so3_state_from_vector,
)
from gyrostat.poisson import (
    BracketKind,
    hamiltonian_field_se3,
    hamiltonian_field_so3,
    hamiltonian_vector_field_via_bracket,
)
from gyrostat.rng import SplitMix64
from gyrostat.scenario import json_text

# The parameters of configs/so3_free_spin.json and configs/se3_heavy_top.json.
PARAMS = InertiaParams(i_bar=(3.0, 2.0, 1.0), j3=1.0)
GRAV = GravityParams(mgh=2.0, chi=(0.0, 0.0, 1.0))
CONFIGS = {
    "so3_free_spin": (ModelKind.SO3, None),
    "se3_heavy_top": (ModelKind.SE3, GRAV),
}
MAX_SEED = 2**64 - 1  # the counter wraps on the first draw

# SHA-256 of json_text(report), recorded from the sample-by-sample audit
# that the block audit replaced.
PINNED = {
    ("so3_free_spin", 42, 1): "ace221922a1482bbf8c9277cfa828a77ccf1d1e4bfba1936809f2a5a6a63e4d0",
    ("so3_free_spin", 42, 1023): "6864aa58b82ee71d5bc7aee85c653aafe92384d4fa398fc2deeca68fa96a6f19",
    ("so3_free_spin", 42, 1024): "a0db6df9ffeb77cef699653b5f29d553d0d68b3511630371dfdd45ece38b9ac0",
    ("so3_free_spin", 42, 1025): "81fe1eddd04a66123965bd0b4a5f8d59cfc0a50921f6264079693d7b5ebb03d5",
    ("so3_free_spin", 42, 1000): "64c56ef8f339b9f23d14221f96a62afbf4c7d11332622892a633176001c734b5",
    ("so3_free_spin", 42, 3000): "30fa85e1998f708610557d4b14691bc8d5270c8cbd6ef2b82029288998623c8d",
    ("so3_free_spin", MAX_SEED, 1): "7aeb88c463160b308a103359a9b46920bec7a2c6ee928241d1c6670040785969",
    ("so3_free_spin", MAX_SEED, 1023): "83b23aab5ec7319da65ed0f06264daf1e89d8f6620cc168347250af93abe388c",
    ("so3_free_spin", MAX_SEED, 1024): "25d0e479fdb035799896cfc4964982f5ba2ac5cacad048a95cc35c5684c3026c",
    ("so3_free_spin", MAX_SEED, 1025): "221b685b6957451907a19f2ea4cd09df647cbde7a96c176716d46d55341d51db",
    ("so3_free_spin", MAX_SEED, 1000): "ede8be9cf6fc24b7bbc6a66839cde3259a3dea151188f394931ca900f4eac7b3",
    ("so3_free_spin", MAX_SEED, 3000): "ba044a75f5252e18f1d42f4bb9d6b67ae5c472ddd83dd49bd0959c4ccf87f367",
    ("se3_heavy_top", 42, 1): "e18f87a503e53de9ca3a3a2df66ccf3b2df394ca75d4c11937c00a28baf8f362",
    ("se3_heavy_top", 42, 1023): "c8e84bd8ae6debdcd1b0f4a9d1c419ce2beb1cb3309fb3216614058ecc8a06d9",
    ("se3_heavy_top", 42, 1024): "b56620d12198b63034a066458c0349abc7c945fba8c10972a2b8215d7bd24240",
    ("se3_heavy_top", 42, 1025): "b085b330f2a3952021756ab9c22285f1fddf5ffe476d34bce3f8aa7ee866069e",
    ("se3_heavy_top", 42, 1000): "6d36ae472ac9326f553703e0fe5d48d97d999a8a6cbdfae4c5556ae0214d92c3",
    ("se3_heavy_top", 42, 3000): "344031bfcdff69c0204c52b27a7215d38af9cbf7b8e9fc088e9050e3d41665c9",
    ("se3_heavy_top", MAX_SEED, 1): "2252e836cf2ba5aaf69aaa6a0fbabd2bf7ee156bb8b39afec648e67e9537d17d",
    ("se3_heavy_top", MAX_SEED, 1023): "9494fbce9386e165a1464583694d461f8533eb6fc6fb97638aa9c250d4be27b2",
    ("se3_heavy_top", MAX_SEED, 1024): "712dc9845c8761508ffd9a4f63ff859f6b5ee0150bf63b2bd1f60610655e161b",
    ("se3_heavy_top", MAX_SEED, 1025): "ab855db980ee4d8ba81c7764236d8dd72bda5ed1480439605fce1e3240fb14bc",
    ("se3_heavy_top", MAX_SEED, 1000): "b547ae0b73dfd0edfa4df5a062b3283199d98df68aa216395239dcf302bfd10d",
    ("se3_heavy_top", MAX_SEED, 3000): "b7844ac64a224809e38bf671fcc68af55061cc48f32c313ba00d2f07c42cdebd",
}


def _scan_audit(kind, params, grav, samples, seed):
    """Reference: one sample at a time, state-based equations, scalar draws."""
    rng = SplitMix64(seed)
    dim = 5 if kind == ModelKind.SO3 else 8
    if kind == ModelKind.SO3:
        h, bk = hamiltonian_field_so3(params), BracketKind.PRODUCT_SO3
    else:
        h, bk = hamiltonian_field_se3(params, grav), BracketKind.PRODUCT_SE3
    worst, worst_index, worst_sample = -1.0, -1, None
    for index in range(samples):
        x = np.array([rng.uniform(-5.0, 5.0) for _ in range(dim)])
        if kind == ModelKind.SO3:
            direct = reduced_rhs_so3(so3_state_from_vector(x), params)
        else:
            direct = reduced_rhs_se3(se3_state_from_vector(x), params, grav)
        via = hamiltonian_vector_field_via_bracket(bk, h, x)
        rel = float(np.max(np.abs(direct - via) / np.maximum(1.0, np.abs(direct))))
        if rel > worst:
            worst, worst_index, worst_sample = rel, index, x
    return worst, worst_index, [float(v) for v in worst_sample]


def test_pins_straddle_the_block_edges():
    counts = {samples for _, _, samples in PINNED}
    assert {BLOCK_SAMPLES - 1, BLOCK_SAMPLES, BLOCK_SAMPLES + 1} <= counts
    assert max(counts) > 2 * BLOCK_SAMPLES


@pytest.mark.parametrize("case", sorted(PINNED, key=str))
def test_report_bytes_are_pinned(case):
    name, seed, samples = case
    kind, grav = CONFIGS[name]
    report = bracket_oracle_audit(kind, PARAMS, grav=grav, samples=samples, seed=seed)
    assert hashlib.sha256(json_text(report).encode()).hexdigest() == PINNED[case]


def test_worst_samples_at_seed_42():
    so3 = bracket_oracle_audit(ModelKind.SO3, PARAMS, samples=1000, seed=42)
    se3 = bracket_oracle_audit(ModelKind.SE3, PARAMS, grav=GRAV, samples=1000, seed=42)
    assert so3["max_rel_discrepancy"] == 3.697433581528742e-09
    assert so3["worst_sample_index"] == 581
    assert se3["max_rel_discrepancy"] == 4.018594930253979e-09
    assert se3["worst_sample_index"] == 446


@pytest.mark.parametrize(
    "kind, samples, seed",
    [
        (ModelKind.SO3, BLOCK_SAMPLES + 3, 7),
        (ModelKind.SE3, BLOCK_SAMPLES + 3, 8),
        (ModelKind.SO3, 50, MAX_SEED - 12345),
        (ModelKind.SE3, 50, 1 << 63),
    ],
)
def test_block_audit_equals_the_scan(kind, samples, seed):
    params = InertiaParams(i_bar=(2.7, 1.9, 0.8), j3=0.45)
    grav = GravityParams(mgh=1.3, chi=(0.36, 0.48, 0.8))
    report = bracket_oracle_audit(kind, params, grav=grav, samples=samples, seed=seed)
    worst, index, sample = _scan_audit(kind, params, grav, samples, seed)
    assert report["max_rel_discrepancy"] == worst
    assert report["worst_sample_index"] == index
    assert report["worst_sample"] == sample


@pytest.mark.parametrize("threshold", [None, 4.0])
def test_ties_go_to_the_earliest_sample(monkeypatch, threshold):
    # dl/dt is 0 on the direct side, so an oracle off by 0.25 or 0.5 there
    # puts exactly that discrepancy on a sample: equal maxima by design.
    real = audit.hamiltonian_vector_field_via_bracket

    def tied(kind, h, x):
        via = real(kind, h, x)
        via[-1] = 0.25 if threshold is None else np.where(x[0] > threshold, 0.5, 0.25)
        return via

    monkeypatch.setattr(audit, "hamiltonian_vector_field_via_bracket", tied)
    samples = 2 * BLOCK_SAMPLES + 1
    report = bracket_oracle_audit(ModelKind.SO3, PARAMS, samples=samples, seed=5)
    first = SplitMix64(5).uniforms(5 * samples, -5.0, 5.0).reshape(samples, 5)[:, 0]
    above = np.flatnonzero(first > threshold) if threshold is not None else [0]
    assert threshold is None or 0 < above[0] < above[-1]  # several tied samples
    assert report["worst_sample_index"] == above[0]
    assert report["max_rel_discrepancy"] == (0.25 if threshold is None else 0.5)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        bracket_oracle_audit(ModelKind.SO3, PARAMS, samples=0)
    with pytest.raises(ValueError):
        bracket_oracle_audit(ModelKind.SE3, PARAMS, samples=10)
