"""Monte Carlo simulation of tracking quantum error correction with GKP qubits.

Subpackages and modules:

* :mod:`gkptrack.gkp` - GKP lattice constants, binning convention, likelihoods
* :mod:`gkptrack.codes` - concatenated C4/C6 maximum-likelihood decoding
* :mod:`gkptrack.protocols` - record likelihoods and the scalar decision of
  one conventional or tracking decode
* :mod:`gkptrack.resources` - physical-qubit budgets and reduction rates
* :mod:`gkptrack.harness` - failure-probability estimation, sweeps, thresholds
* :mod:`gkptrack.kernels` - ``ProtocolConfig``, the one trial config type, the
  stream contract and its draw order, and the Monte Carlo kernel, which
  simulates the protocols' trials
* :mod:`gkptrack.cli` - the ``gkptrack`` command line tool
"""

__version__ = "0.1.0"
