"""Finite-dimensional K-fusion frames.

Verification of frame conditions with optimal bounds, operator
factorizations, duals, resolutions of bounded operators, and perturbation
certificates, plus a JSON-driven command line front end.
"""

from importlib import import_module as _import_module

# Each module and the names the root re-exports from it; a public name is added only here.
_EXPORTS = {
    "duality": """DualCertificate canonical_k_dual enlarge_dual inverse_on_image
        is_k_dual is_qk_dual k_dual_reconstruction local_duality_equiv
        minimal_dual_test phi_operator qk_dual_from_x""".split(),
    "factorization": """DouglasSolution XwSolution douglas_solve range_included
        x_w""".split(),
    "frames": """BlockVector Certificate FrameBounds FusionSystem KFrame Subspace
        analysis frame_operator is_exact is_minimal range_projector
        same_subspace subspace_from_columns subspace_from_spanning synthesis
        verify_k_frame verify_k_fusion""".split(),
    "instances": """ProblemInstance instance_digest load_instance random_instance
        save_instance""".split(),
    "numerics": """DEFAULT_TOL AgreementError Svd ToleranceProfile max_rayleigh
        numerical_rank orthonormal_range pinv spectral_norm svd""".split(),
    "perturbation": """PerturbationReport analysis_epsilon approximate_dual_norm
        certify_perturbation epsilon_threshold perturbed_bounds""".split(),
    "resolution": """Resolution minimal_norm_check pinv_via_xw resolution_b
        resolution_c resolution_from_x verify_resolution""".split(),
}

for _key, _names in _EXPORTS.items():
    _module = _import_module(f"kfusion.{_key}")
    globals().update((name, getattr(_module, name)) for name in _names)
del _key, _names, _module

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__version__ = "0.1.0"
