import types

import chamferkit

# the README's documented API, plus what the acceptance criteria and the
# benchmark reach through the package root
ROOT_NAMES = {
    "PointCloud", "TransformSpec", "chamfer", "chamfer_gradient", "FitConfig", "fit",
    "evaluate", "gen_shape", "jitter_cloud", "match_indexed", "match_brute",
    "chamfer_poincare", "poincare_distance", "clip_to_ball", "transform",
    "transform_derivative", "weight_z", "MAX_ABS_COORD", "pair_sq", "as_point",
    "read_cloud", "write_cloud", "ParseError", "DivergenceError", "acosh1p",
    "displace_outliers", "finite_diff_gradient", "run_bench", "SetDistanceReport",
    "MatchResult", "EvalReport", "bounding_box", "fscore", "hausdorff",
}


def test_root_names():
    public = {
        name
        for name, value in vars(chamferkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == ROOT_NAMES
