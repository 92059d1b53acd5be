"""Joint relay-beamforming and source power control for the full-duplex
MIMO two-way relay channel: achievable-rate-region and sum-rate solvers,
benchmark schemes, and a Monte Carlo experiment harness."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    ChannelRealization,
    EffectiveGains,
    OperatingPoint,
    PowerAllocation,
    RelayBeamformer,
    SystemConfig,
    db_to_linear,
    sample_channels,
)
from .rate_region import Infeasible, max_rate_given_rb, rate_region  # noqa: F401
from .sum_rate import max_sum_rate  # noqa: F401
from .baselines import SchemeId  # noqa: F401
