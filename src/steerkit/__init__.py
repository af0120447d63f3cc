"""Steering-inequality numerics for two-qubit states.

Computes and assesses the rotationally-invariant trace-norm steering
parameter and the two-setting steering parameter, decides local-hidden-
state membership of correlation matrices exactly through their LHS gauge,
and simulates finite-statistics photon-counting runs of the corresponding
experiment.

Import each name from its submodule (``from steerkit.lhs import
lhs_membership``).  ``import steerkit`` loads no submodule, so a caller
builds only the layers it uses.
"""

__version__ = "0.1.0"

# Alice's setting count is at most this, in a frame and in the LHS oracle:
# the oracle's Newton solve builds a dense Hessian in (2^(m-1) - m) n
# variables, 78 at m = 6 but 1506 at m = 10.  It lives here, where frames
# and lhs both read it, so that building a frame does not load the oracle.
MAX_ALICE_SETTINGS = 6
# One boundary rule: assess's violated needs bound * (1 + BOUNDARY_MARGIN),
# lhs's verdicts a gauge this far from 1.  RIS/sqrt(m) and NSS/sqrt(2) never
# exceed the gauge; an accepted Bob frame stretches by <= 1 + ORTHONORMAL_TOL.
BOUNDARY_MARGIN = 1e-9
