"""Realize cycles of oriented closed pseudomanifolds by manifolds that
finitely cover a Tomei manifold, and machine-verify every step."""

from .cells import (
    FaceClasses,
    PermutahedralComplex,
    Triangulation,
    euler_characteristic,
    face_classes,
    triangulate,
)
from .covering import (
    CoverComplex,
    CoveringReport,
    InvolutionRegistry,
    build_component,
    build_full,
    verify_covering,
)
from .homology import (
    HomologyGroup,
    SmithForm,
    betti_numbers,
    boundary_matrices,
    fundamental_class,
    homology,
    smith_normal_form,
)
from .involutions import (
    canonical_involution,
    count_compatible_involutions,
    enumerate_compatible_involutions,
    predicted_multiplicity,
)
from .pseudomanifold import (
    AbstractComplex,
    BarycentricSubdivision,
    ColoredPseudomanifold,
    barycentric_subdivide,
    bipartition,
    check_regular_coloring,
    colored_from_complex,
    orient,
    validate_pseudomanifold,
)
from .certificate import RealizationReport
from .tomei import build_tomei

# The triangulation-based realization map is not on the ``verify`` path,
# so its module is imported on first use of one of its names.
_REALIZATION = ("RealizationMap", "realization_map", "subdivided_cycle",
                "verify_realization")


def __getattr__(name):
    if name in _REALIZATION:
        from . import realization
        return getattr(realization, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AbstractComplex",
    "BarycentricSubdivision",
    "ColoredPseudomanifold",
    "CoverComplex",
    "CoveringReport",
    "FaceClasses",
    "HomologyGroup",
    "InvolutionRegistry",
    "PermutahedralComplex",
    "RealizationMap",
    "RealizationReport",
    "SmithForm",
    "Triangulation",
    "barycentric_subdivide",
    "betti_numbers",
    "bipartition",
    "boundary_matrices",
    "build_component",
    "build_full",
    "build_tomei",
    "canonical_involution",
    "check_regular_coloring",
    "colored_from_complex",
    "count_compatible_involutions",
    "enumerate_compatible_involutions",
    "euler_characteristic",
    "face_classes",
    "fundamental_class",
    "homology",
    "orient",
    "predicted_multiplicity",
    "realization_map",
    "smith_normal_form",
    "subdivided_cycle",
    "triangulate",
    "validate_pseudomanifold",
    "verify_covering",
    "verify_realization",
]
