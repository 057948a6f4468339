"""Chamfer-style point-cloud set distances, gradients, and fitting tools.

The package root holds the documented API; everything else is reached
through its module, e.g. chamferkit.fitting.sweep_alpha_lr.
"""

from .bench import run_bench
from .cloud import (
    MAX_ABS_COORD,
    PointCloud,
    as_point,
    bounding_box,
    displace_outliers,
    gen_shape,
    jitter_cloud,
    pair_sq,
)
from .distances import (
    SetDistanceReport,
    TransformSpec,
    acosh1p,
    chamfer,
    chamfer_poincare,
    clip_to_ball,
    poincare_distance,
    transform,
    transform_derivative,
    weight_z,
)
from .evaluation import EvalReport, evaluate, fscore, hausdorff
from .fitting import DivergenceError, FitConfig, fit
from .gradients import chamfer_gradient, finite_diff_gradient
from .io import ParseError, read_cloud, write_cloud
from .matching import MatchResult, match_brute, match_indexed

__version__ = "0.1.0"
