"""Monte Carlo simulation of tracking quantum error correction with GKP qubits.

Subpackages and modules:

* :mod:`gkptrack.gkp` - GKP measurement binning, channel sampling, likelihoods
* :mod:`gkptrack.single_qec` - the single-qubit-level correction step of tracking
* :mod:`gkptrack.codes` - concatenated C4/C6 maximum-likelihood decoding
* :mod:`gkptrack.protocols` - conventional and tracking protocol trials
* :mod:`gkptrack.resources` - physical-qubit budgets and reduction rates
* :mod:`gkptrack.harness` - failure-probability estimation, sweeps, thresholds
* :mod:`gkptrack.kernels` - ``ProtocolConfig``, the one trial config type, the
  stream contract, and the Monte Carlo kernel
* :mod:`gkptrack.cli` - the ``gkptrack`` command line tool
"""

__version__ = "0.1.0"
