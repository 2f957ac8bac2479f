"""freqconn: time- and frequency-domain volatility connectedness.

Rolling VAR estimation on daily realized-volatility panels, generalized
forecast-error variance decompositions, and connectedness measures
decomposed across frequency bands with parametric-bootstrap bands.
"""

from .dynamics import (
    BootstrapSpec,
    EventGrid,
    RollingResult,
    TrendFit,
    annotate,
    bootstrap_bands,
    linear_trend,
    ratio_series,
    rolling_connectedness,
)
from .errors import DataError, FreqconnError, NumericError, UsageError
from .freqdomain import (
    BandMeasures,
    BandSpec,
    SpectralGrid,
    band_measures,
    band_table,
    days_to_band,
    spectral_gfevd,
)
from .ingest import (
    ReturnGrid,
    TickSeries,
    VolatilityPanel,
    bipower_variation,
    build_panel,
    filter_calendar,
    load_ticks,
    read_panel_csv,
    resample_grid,
    summary_stats,
    synth_var_panel,
    write_panel_csv,
)
from .timedomain import ConnectednessTable, DyMeasures, dy_measures, gfevd
from .varcore import VarModel, WoldSequence, fit_var, stability, wold

__version__ = "0.1.0"

__all__ = [
    "BandMeasures", "BandSpec", "BootstrapSpec", "ConnectednessTable",
    "DataError", "DyMeasures", "EventGrid", "FreqconnError", "NumericError",
    "ReturnGrid", "RollingResult", "SpectralGrid", "TickSeries", "TrendFit",
    "UsageError", "VarModel", "VolatilityPanel", "WoldSequence", "annotate",
    "band_measures", "band_table", "bipower_variation", "bootstrap_bands",
    "build_panel", "days_to_band", "dy_measures", "filter_calendar", "fit_var",
    "gfevd", "linear_trend", "load_ticks", "ratio_series", "read_panel_csv",
    "resample_grid", "rolling_connectedness", "spectral_gfevd", "stability",
    "summary_stats", "synth_var_panel", "wold", "write_panel_csv",
]
