"""Cluster-state quantum metrology toolkit.

Subpackages by concern:

* :mod:`clustersense.simcore`  - dense state vectors and the compressor's X/SWAP gates
* :mod:`clustersense.probes`   - unary-subspace probe states and their rotation angles
* :mod:`clustersense.compress` - unary-to-binary compression circuit and its resources
* :mod:`clustersense.mbqc`     - measurement patterns and their branch-exhaustive checks
* :mod:`clustersense.estimate` - local and Bayesian phase/frequency estimation
* :mod:`clustersense.cli`      - estimation-curve CSV output and verification CLI
"""

from . import compress, estimate, mbqc, probes, simcore

__all__ = ["simcore", "probes", "compress", "mbqc", "estimate"]
__version__ = "0.1.0"
