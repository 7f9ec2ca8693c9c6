"""rhglab: a random hyperbolic graph laboratory.

Generate graphs from the G_{alpha,C}(n) model, evaluate hyperbolic
measures exactly and by Monte Carlo, and check structural claims
(center clique, diameter growth, second component, induced path
components) on realized instances.
"""

from .geometry import (
    ModelParams,
    PolarPoint,
    angle_approx,
    angle_at_origin,
    angular_difference,
    hyperbolic_distance,
    is_edge,
    max_angle_for_edge,
)
from .sampler import (
    SampleSet,
    add_probe,
    load_points,
    radial_quantile,
    sample_poisson_model,
    sample_uniform_model,
    save_points,
)
from .measure import (
    McEstimate,
    ball_at,
    ball_origin,
    band_origin,
    band_ratio_check,
    cone,
    difference,
    intersection,
    mu_ball_intersection_approx,
    mu_ball_origin_approx,
    mu_ball_origin_exact,
    mu_band_origin,
    mu_band_origin_approx,
    mu_lens_minus_ball,
    mu_monte_carlo,
)
from .graphs import Graph, build, build_fast, build_naive, load_graph, save_graph
from .analysis import (
    analyze,
    center_clique,
    component_diameter,
    connected_components,
    degree_stats,
    distance_to_center,
    induced_path_components,
)
from .explorer import (
    BandSchedule,
    ExposeConfig,
    ExposeOutcome,
    boundary_path_audit,
    compute_schedule,
    descend_inner,
    expose,
    find_center_path,
)

__version__ = "0.1.0"
