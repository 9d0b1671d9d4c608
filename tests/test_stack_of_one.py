"""A stack of one gets the bits of ``solve_floats``.

Every stack, whatever its size, takes the stack kernels (``_jacobi_stack``,
``_project_stack``); only ``solve_floats`` reads a system as Python floats,
through the scalar twins ``_jacobi_one`` and ``_project``. These tests check
that ``solve_stacked`` and ``solve_shared`` on a stack of one give what
``solve_floats`` gives for the same system: the solution in float hex, the
condition estimate and the rejection. The systems are adversarial: column
norms too far apart for a rotation (``_HOPELESS``), exactly zero columns, a
first column in range(C), windows above the kappa_F gate and scales where
the power-of-two scaling of a target overflows.
"""
import math

import numpy as np
import pytest

from greycast import lstsq, models
from greycast.models import ModelKind
from test_shared_solve import adversarial_windows as shared_windows, is_projected, shared_systems
from test_two_column_solve import CORPUS, EDGE_SYSTEMS, adversarial_windows, grey_systems


def as_floats(solution, condition, rejected):
    return [float(v).hex() for v in solution], float(condition).hex(), bool(rejected)


def on_columns_only(monkeypatch, name):
    """Make ``name`` raise when it is given floats, so that a stack can
    reach it only on (N,) columns."""
    kernel = getattr(lstsq, name)

    def checked(first, *args):
        if isinstance(first[0], float):
            raise AssertionError(f"a stack reached {name} on floats")
        return kernel(first, *args)
    monkeypatch.setattr(lstsq, name, checked)


def two_column_systems():
    """(N, m, 2) designs and (N, m) targets: the grey corpus at plain and
    extreme scales, the edge systems and hand-made adversarial ones."""
    rng = np.random.default_rng(2300)
    designs, targets = [], []
    for kind, omega in CORPUS:
        d, t = grey_systems(kind, adversarial_windows(rng, 60), omega)
        for scale in (1.0, 1e-300, 1e300):
            with np.errstate(all="ignore"):
                d_scaled, t_scaled = d * scale, t * scale
            finite = np.isfinite(d_scaled).all(axis=(1, 2)) & np.isfinite(t_scaled).all(axis=1)
            designs.append(d_scaled[finite])
            targets.append(t_scaled[finite])
    edge = np.array([design for design, _ in EDGE_SYSTEMS.values()])
    designs.append(edge)
    targets.append(np.tile([-3.0, 2.0, 1.0], (len(edge), 1)))
    col = rng.normal(size=(4, 5))
    made = [
        # Column norms 1e7 and 1e14 apart: squared, past _HOPELESS.
        (np.stack([col[0], col[1] * 1e-7], axis=1), col[2]),
        (np.stack([col[0] * 1e-14, col[1]], axis=1), col[2]),
        (np.stack([col[0], col[1] * 1e-200], axis=1), col[2]),
        # An exactly zero column, alone and beside a tiny one.
        (np.stack([np.zeros(5), col[1]], axis=1), col[2]),
        (np.stack([col[0] * 1e-300, np.zeros(5)], axis=1), col[2]),
        # A target in range(B), and a zero target.
        (np.stack([col[0], col[1]], axis=1), 2.0 * col[0] - col[1]),
        (np.stack([col[0], col[1]], axis=1), np.zeros(5)),
        # Scaling a 1e300 target by a 1e-300 design's power of two overflows.
        (np.stack([col[0], col[1]], axis=1) * 1e-300, col[2] * 1e300),
    ]
    designs.append(np.array([d for d, _ in made]))
    targets.append(np.array([t for _, t in made]))
    return designs, targets


def test_two_column_stack_of_one_equals_solve_floats(monkeypatch):
    on_columns_only(monkeypatch, "_jacobi_one")
    reference = {}
    for designs, targets in zip(*two_column_systems()):
        for design, target in zip(designs, targets):
            alone = lstsq.solve_stacked(design[None], target[None])
            key = (design.tobytes(), target.tobytes())
            reference[key] = (design, target, as_floats(alone.solutions[0], alone.condition[0],
                                                          alone.rejected[0]))
    monkeypatch.undo()
    rejected = hopeless = 0
    for design, target, stacked in reference.values():
        floats = lstsq.solve_floats(design.T.tolist(), target.tolist())
        assert as_floats(*floats) == stacked, (design, target)
        rejected += stacked[2]
        with np.errstate(all="ignore"):
            a, b = (design * design).sum(axis=0)
        hopeless += min(a, b) < lstsq._HOPELESS * max(a, b)
    assert rejected and hopeless and rejected < len(reference)


@pytest.mark.parametrize("kind", [ModelKind.GM_S, ModelKind.GM_C, ModelKind.GM_SC])
@pytest.mark.parametrize("omega", [None, 1.3, math.pi])
def test_shared_stack_of_one_equals_solve_floats(monkeypatch, kind, omega):
    """Seasonal windows at level 50 pass the kappa_F gate and at 5e4 do not;
    an all-zero window has a first column of zeros, which lies in range(C),
    and omega = pi makes a sine column vanish, which leaves a block with no
    factors."""
    w = models.MIN_WINDOW[kind] + 1
    omega = models.DEFAULT_OMEGA[kind] if omega is None else omega
    rng = np.random.default_rng(2301)
    k = np.arange(w)
    seasonal = 50.0 + 10.0 * np.sin(0.7 * k)
    windows = np.concatenate([shared_windows(rng, 60, w),
                              [seasonal, seasonal + 5e4, np.zeros(w)]])
    designs, targets, block = shared_systems(kind, windows, omega)
    # A first column exactly in range(C): a multiple of C's first column plus 3.
    designs = np.concatenate([designs, designs[:1]])
    designs[-1, :, 0] = 2.0 * block.columns[:, 0] + 3.0
    targets = np.concatenate([targets, targets[:1]])
    on_columns_only(monkeypatch, "_project")
    on_columns_only(monkeypatch, "_jacobi_one")
    alone = [lstsq.solve_shared(designs[i:i + 1], targets[i:i + 1], block)
             for i in range(len(designs))]
    monkeypatch.undo()
    for design, target, stacked in zip(designs, targets, alone):
        floats = lstsq.solve_floats([design[:, 0].tolist()], target.tolist(), block)
        assert as_floats(*floats) == as_floats(stacked.solutions[0], stacked.condition[0],
                                               stacked.rejected[0])
    projected = is_projected(designs, targets, block)
    if block.basis is None:
        assert omega == math.pi and kind is not ModelKind.GM_C
    else:
        assert projected.any() and not projected.all() and not projected[-1]
