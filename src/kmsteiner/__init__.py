"""Steiner designs with prescribed automorphism groups.

Pipeline: generate subset-orbit representatives under a prescribed group,
assemble the Kramer-Mesner exact cover instance over the good orbits,
optionally break normalizer-induced symmetry, solve, and classify the
resulting designs up to isomorphism.
"""

from .perm import (
    Permutation,
    PermutationGroup,
    cyclic_group,
    group_order,
    normalizer_of_cyclic,
    orbit_of_subset,
    parse_permutation,
    read_group_file,
    verify_normalizes,
    write_group_file,
)
from .orbitgen import (
    GoodOrbitSet,
    OrbitRep,
    good_k_orbit_reps,
    t_orbit_reps,
)
from .km import KMInstance, build_km, count_b, t_orbit_lookup
from .xcc import (
    Solution,
    SolveStats,
    XCCProblem,
    export_text,
    import_text,
    solve,
    solve_all,
    verify_solution,
)
from .symbreak import (
    Encoding,
    NormalizerClasses,
    decode_solution,
    encode,
    normalizer_classes,
)
from .designs import (
    Design,
    IsoClass,
    canonical_form,
    classify,
    expand,
    verify_steiner,
)
from .order84 import build_order84_group, enumerate_order84_groups, normalizer_in_s91

__version__ = "0.1.0"

__all__ = [
    "Permutation",
    "PermutationGroup",
    "parse_permutation",
    "group_order",
    "orbit_of_subset",
    "cyclic_group",
    "normalizer_of_cyclic",
    "verify_normalizes",
    "read_group_file",
    "write_group_file",
    "OrbitRep",
    "GoodOrbitSet",
    "t_orbit_reps",
    "good_k_orbit_reps",
    "KMInstance",
    "t_orbit_lookup",
    "count_b",
    "build_km",
    "XCCProblem",
    "Solution",
    "SolveStats",
    "solve",
    "solve_all",
    "verify_solution",
    "export_text",
    "import_text",
    "NormalizerClasses",
    "Encoding",
    "normalizer_classes",
    "encode",
    "decode_solution",
    "Design",
    "IsoClass",
    "expand",
    "verify_steiner",
    "canonical_form",
    "classify",
    "build_order84_group",
    "enumerate_order84_groups",
    "normalizer_in_s91",
]
