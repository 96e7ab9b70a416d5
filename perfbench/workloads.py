"""Workload definitions: sizes, weights and reference multipliers.

Plain data only, so the worker can read it before the timed import.
README.md in this directory says why each workload was chosen.
"""

# Relative tolerance on lambda against the reference recorded for each
# workload.  lambda agrees to ~1e-15 across initial profiles; 1e-8 leaves
# room for an operator that reorders its sums (ROADMAP item 2 quotes 1e-12
# against the dense product) while catching any change of the answer.
LAMBDA_RTOL = 1e-8
# Euler-Lagrange residual gate of the AC-6 acceptance test.
EL_RESIDUAL_MAX = 1e-3
DUALITY_MAX = 1e-10
SPHERE_MASS_RTOL = 1e-9

# kind "continue": default_schedule(floor) continuation with the
#   constant-test-function sharp constant.
# kind "solve": one maximize_subcritical at p = p_crit + p_frac (p_bulk - p_crit),
#   the CLI `solve` default.
# weight ("cos2", eps): K = 1 + eps cos 2 theta on the circle.
# weight ("p2", eps): K = 1 + eps P_2(cos theta) on the 2-sphere.
# ball: (radial points, angular resolution).
WORKLOADS = {
    "ac6-continue": {
        "kind": "continue", "n": 2, "a": 0.5, "sphere": 256, "ball": (96, 512),
        "weight": ("cos2", 0.1), "floor": 1e-3,
        "lambda_ref": 0.03295633068182515,
    },
    "n2-fine-solve": {
        "kind": "solve", "n": 2, "a": 0.5, "sphere": 512, "ball": (120, 1024),
        "weight": ("cos2", 0.1), "p_frac": 0.25,
        "lambda_ref": 0.0680137438815383,
    },
    "n3-balance-solve": {
        "kind": "solve", "n": 3, "a": -0.5, "sphere": 20, "ball": (96, 20),
        "weight": ("p2", 0.1), "p_frac": 0.25,
        "lambda_ref": 0.2050598217420465,
    },
}
