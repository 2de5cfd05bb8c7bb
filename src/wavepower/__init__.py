"""Wave-energy resource assessment toolkit.

Spectral wave power at gridded coastal sites, a seedable Grey Wolf
Optimizer over (height, period, depth) bounds, and distance-to-optimum
site ranking.
"""

from .assessment import (
    OptimalReference,
    correlation_score,
    deviation_norm,
    rank_points,
    zone_shares,
)
from .data_io import SeaStateSeries, SiteCatalog, builtin_catalog
from .gwo import GwoConfig, GwoRun, SearchBounds, gwo_maximize
from .mechanics import (
    FluidEnvironment,
    power_transfer_factor,
    regular_wave_power,
)
from .spectral import (
    ElevationRecord,
    SeaStateStats,
    SegmentationConfig,
    VarianceDensitySpectrum,
    estimate_spectrum,
    irregular_wave_power,
    parametric_power,
    sea_state_stats,
    spectral_moment,
    synthesize_record,
    total_variance,
    uniform_spectrum,
)

__version__ = "0.1.0"
