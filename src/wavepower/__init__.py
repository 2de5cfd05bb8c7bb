"""Wave-energy resource assessment toolkit.

Spectral wave power at gridded coastal sites, a seedable Grey Wolf
Optimizer over (height, period, depth) bounds, and distance-to-optimum
site ranking.

The names below, and the submodules, load on first use (PEP 562), so
that `import wavepower.cli`, which each CLI stage process starts with,
loads no module its stage does not run.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines, re-exported here
_EXPORTS = {
    "assessment": ("correlation_score", "deviation_norm", "rank_points"),
    "data_io": ("builtin_catalog",),
    "gwo": ("GwoConfig", "GwoRun", "SearchBounds", "gwo_maximize"),
    "mechanics": ("FluidEnvironment", "power_transfer_factor",
                  "regular_wave_power"),
    "spectral": ("ElevationRecord", "VarianceDensitySpectrum",
                 "estimate_spectrum", "irregular_wave_power",
                 "parametric_power", "sea_state_stats", "spectral_moment",
                 "synthesize_record", "uniform_spectrum"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
_SUBMODULES = ("assessment", "cli", "data_io", "errors", "gwo", "mechanics",
               "pipeline", "spectral")
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_SUBMODULES))
