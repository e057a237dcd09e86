"""Golden report numbers: a change that claims to leave every decision
of the solver as it was must reproduce these T, M and DoFs exactly.

T is pinned by its repr, so a difference in the last bit of the summed
step lengths fails as well.  The ladders are the power2 (u0 = 1) cG and
dG runs of the benchmark's h experiment at r = 1 and its hp experiment
(divergence cap 1e12), three tolerances each, plus one cG hp run at
10^-7.5 whose last certificate hangs on where the delta solve probes.
"""

import pytest

from hpgalerkin.cli import run_from_config

GOLDEN = [
    # scheme, mode, tol_star, repr(T), M, dofs
    ("cg", "h", 1e-2, "0.9187499999999997", 10, 10),
    ("cg", "h", 1e-4, "0.9937499999999999", 56, 56),
    ("cg", "h", 1e-6, "0.9997192382812448", 284, 284),
    ("cg", "hp", 1e-3, "0.9843749999999996", 11, 22),
    ("cg", "hp", 1e-6, "0.9999755859375002", 27, 107),
    ("cg", "hp", 1e-9, "0.9999999046325687", 44, 263),
    # phi < 0 only on a stretch narrower than one delta scan step decided
    # whether the last interval (psi = 5021.7) was certified, when the
    # residual's rule had deg + 7 points and this run ended at M = 35
    ("cg", "hp", 10.0**-7.5, "0.9999938964843743", 34, 169),
    ("dg", "h", 1e-2, "0.9374999999999997", 8, 16),
    ("dg", "h", 1e-4, "0.996093749999999", 39, 78),
    ("dg", "h", 1e-6, "0.9998657226562456", 203, 406),
    ("dg", "hp", 1e-3, "0.9843749999999996", 11, 31),
    ("dg", "hp", 1e-6, "0.9999755859375001", 26, 129),
    ("dg", "hp", 1e-9, "0.9999999046325674", 41, 286),
]


@pytest.mark.parametrize(
    "scheme, mode, tol_star, T, M, dofs",
    GOLDEN,
    ids=[f"{s}-{m}-{t:g}" for s, m, t, *_ in GOLDEN],
)
def test_power2_ladder_numbers(scheme, mode, tol_star, T, M, dofs):
    config = {
        "problem": {"name": "power2", "u0": 1.0},
        "scheme": scheme,
        "mode": mode,
        "r": 1,
        "k_init": 0.15,
    }
    if mode == "hp":
        config["picard"] = {"divergence_cap": 1e12}
    result = run_from_config(config, tol_star=tol_star)
    assert result.termination.value == "delta_not_found"
    assert (repr(result.T), result.M, result.dofs) == (T, M, dofs)
