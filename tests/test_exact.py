"""The kernel's digital failure rates against exact ones, L1-L3.

:func:`oracle.exact_digital_p_fail` has no sampling noise, so these tests
check the whole digital stack at once: sampling, binning, the tracking
parity, the decoder's tables, tie coins and the XOR over cycles.
"""

import math

import pytest

from gkptrack.gkp import SQRT_PI, p_corr
from gkptrack.harness import SweepConfig, estimate_point
from gkptrack.kernels import ProtocolConfig
import oracle

#: trials per Monte Carlo point: 12 blocks
TRIALS = 98_304
#: largest accepted |z| of a failure count against the exact rate
Z_MAX = 4.0


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("protocol,cycles,sigma_cycle", [
    ("conventional", 1, 0.55), ("conventional", 3, 0.4), ("tracking", 2, 0.42), ("tracking", 3, 0.33),
])
def test_digital_p_fail_matches_exact(protocol, cycles, sigma_cycle, level):
    cfg = SweepConfig(protocol=protocol, analog=False, cycles=cycles, sigma_total_grid=(sigma_cycle * cycles,),
                      levels=(level,), trials_per_point=TRIALS, master_seed=11)
    exact = oracle.exact_digital_p_fail(cfg.point_params(0))
    est = estimate_point(cfg, 0)
    z = (est.failures - TRIALS * exact) / math.sqrt(TRIALS * exact * (1.0 - exact))
    assert abs(z) <= Z_MAX, f"{est.failures} failures against {TRIALS * exact:.1f} expected, z = {z:.2f}"


@pytest.mark.parametrize("sigma", [0.3, 0.55, 1.0])
def test_leaf_flip_is_odd_bin_mass(sigma):
    """A leaf flips on an odd bin; ``1 - p_corr`` also counts the even bins off the centre."""
    u = SQRT_PI / (sigma * math.sqrt(2.0))
    even_off_centre = sum(math.erfc((k - 0.5) * u) - math.erfc((k + 0.5) * u) for k in range(2, 100, 2))
    assert oracle.odd_bin_mass(sigma) == pytest.approx(1.0 - p_corr(sigma) - even_off_centre, rel=1e-9)


def test_leaf_is_a_fair_coin_at_huge_sigma():
    assert oracle.odd_bin_mass(100.0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("cfg", [ProtocolConfig("tracking", True, 1, 2, 0.5),
                                 ProtocolConfig("tracking", False, 1, 2, 0.5, sigma_ancilla=0.1)])
def test_exact_refuses_continuous_records(cfg):
    with pytest.raises(ValueError, match="digital configs with perfect ancillas only"):
        oracle.exact_digital_p_fail(cfg)
