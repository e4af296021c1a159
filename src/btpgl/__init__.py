"""Exact intersection numbers of linear cycles on p-adic projective space and
combinatorial distances in the lattice-class building for PGL."""

from .building import (
    ClassKey,
    adjacent,
    bfs_ball,
    bfs_dist,
    class_key,
    dist,
    gaussian_binomial,
    neighbors,
)
from .cycles import (
    ApartmentReport,
    CycleAnalysis,
    CycleConfiguration,
    CycleDecomposition,
    IdentityReport,
    InstanceSample,
    Properness,
    PropernessReport,
    VertexFamily,
    analyze,
    apartment_distance_report,
    decompose_intersection,
    distance_to_family,
    family_bfs_distance,
    family_window_keys,
    higherdim_vertex_family,
    hyperplane_kernel,
    intersect_hyperplanes,
    nearest_family_member,
    properness_check,
    random_instance,
    realized_forms,
    verify_intersection_identity,
    vertex_family,
)
from .errors import (
    BtpglError,
    EnumerationTooLarge,
    GenerationExhausted,
    ImproperGenericIntersection,
    NegativeValuation,
    NonIntegralEntry,
    NotSplitInside,
    NotUnimodular,
    ProperFail,
    RankMismatch,
    SchemaError,
    SingularTransition,
)
from .lattices import (
    DualForm,
    LatticeBasis,
    SplitSubmodule,
    TriangularizationResult,
    complete_to_complement,
    intersect_spans,
    invariant_exponents,
    is_split,
    same_submodule,
    saturate_coords,
    transform_dual_form,
    triangularize,
)
from .padic import INFINITY, PAdicContext, Scalar

__version__ = "0.1.0"
