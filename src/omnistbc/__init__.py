"""Link-level simulator for omnidirectional space-time block codes.

Builds channel-independently precoded low-dimensional STBCs on top of
Zadoff-Chu phase sequences, verifies their omnidirectionality and
per-antenna power properties, and estimates bit error rates over one-ring
spatially correlated Rayleigh channels with a deterministic seeded Monte
Carlo engine.
"""

__version__ = "0.1.0"

from .analysis import (
    BerPoint,
    coding_gain,
    fit_diversity_order,
    omni_flatness,
    pep_upper_bound,
)
from .channel import (
    CovarianceModel,
    covariance_for,
    dft_domain_leakage,
    isotropy_deviation,
)
from .codes import (
    Codeword,
    encode_ciod,
    encode_nze_oac,
    encode_nze_tc,
    encode_ostbc,
    encode_qostbc,
)
from .config import ConfigError, SimConfig, load_config, parse_config
from .constellations import (
    Constellation,
    make_pam,
    make_psk,
    make_rotated_qam,
    min_sq_distance,
)
from .engine import emit_csv, run_angle_sweep, run_ber_sweep
from .precoding import (
    Precoder,
    avg_receive_power,
    build_precoder,
    check_requirements,
    transmit,
)
from .sequences import (
    is_cazac,
    is_constant_amplitude,
    lift,
    periodic_autocorr,
    unitary_dft,
    zc_generate,
)
