"""Coherent states on the Mobius strip.

Subpackage map:

- ``theta``       Jacobi Theta_2/Theta_3 engine with certified truncation
- ``geometry``    torus/strip embeddings, angle constraint, label map
- ``dynamics``    constrained Lagrangian/Hamiltonian dynamics, spectrum,
                  RK4 trajectory integration
- ``states``      coherent-state construction, overlaps, expectations,
                  occupation law, quantization scan, time evolution
- ``projection``  torus factorization, projected overlap, universal
                  constraint projector, strip -> circle relabeling
- ``cli``         command-line frontend (``mobiuscs ...``)
"""

from . import dynamics, geometry, projection, states, theta

__all__ = ["theta", "geometry", "dynamics", "states", "projection"]
__version__ = "0.1.0"
