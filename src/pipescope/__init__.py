"""Pressure-transient simulation and pipe area reconstruction on tree networks."""

__version__ = "0.1.0"

from .graph import PointOnPipe, action_times, validate_network
from .simulate import SimConfig, conservation_residual, junction_scatter, step_inflow
from .irm import AnalyticIRM, SampledIRM, load_irm, measure_irm, oracle_irm, sample_irm, save_irm
from .inversion import ReconConfig, area_profile, volume_profile
