"""Surjectivity of cubic rational self-maps of the projective plane.

A cubic self-map of P^2 over a finite field GF(q) is encoded by three
cubic forms.  This package decides whether such a map hits every
rational point (`surjectivity`): it tests each rational pencil of the
plane the forms span for a base point off the plane's base locus over
GF(p^d), d <= 9.  A pencil without one is unruly and makes the label 0.
It cross-checks the labels against a direct image enumeration, generates
labeled datasets of coefficient triples (`dataset`), trains a small
convolutional score on them (`network`), and certifies two explicit
complex surjective maps with exact rational arithmetic (`certify`).
"""

from .certify import (
    Certificate,
    ExplicitMap,
    explicit_map,
    numeric_preimage,
    preimage_quartic,
    reference_quartic,
    solve_roots,
    verify_case,
)
from .dataset import (
    NO_FILTER,
    NORM_ONLY,
    STRICT_ORTHONORMAL,
    DatasetRecord,
    EnumConfig,
    generate_dataset,
    read_output,
    stats,
    write_output,
)
from .finitefield import Field, ProjPoint, Scalar, build_field, enumerate_p2
from .forms import TernaryForm, combine, evaluate, has_common_factor, parse_form
from .linsys import (
    FIVE_POINT,
    SIX_POINT,
    CubicSystem,
    Plane,
    PointConfig,
    SystemPencils,
    base_locus,
    make_plane,
    reference_points,
    reference_system,
    vanishing_cubics,
)
from .network import (
    TrainConfig,
    TrainedModel,
    evaluate as evaluate_model,
    gradient_check,
    load_checkpoint,
    mean_prediction,
    save_checkpoint,
    train,
)
from .surjectivity import (
    SurjectivityLabel,
    find_unruly_seven_points,
    forward_oracle,
    label_plane,
    test_pencil,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CubicSystem",
    "DatasetRecord",
    "EnumConfig",
    "ExplicitMap",
    "FIVE_POINT",
    "Field",
    "NO_FILTER",
    "NORM_ONLY",
    "Plane",
    "PointConfig",
    "ProjPoint",
    "STRICT_ORTHONORMAL",
    "SIX_POINT",
    "Scalar",
    "SurjectivityLabel",
    "SystemPencils",
    "TernaryForm",
    "TrainConfig",
    "TrainedModel",
    "base_locus",
    "build_field",
    "combine",
    "enumerate_p2",
    "evaluate",
    "evaluate_model",
    "explicit_map",
    "find_unruly_seven_points",
    "forward_oracle",
    "generate_dataset",
    "gradient_check",
    "has_common_factor",
    "label_plane",
    "load_checkpoint",
    "make_plane",
    "mean_prediction",
    "numeric_preimage",
    "parse_form",
    "preimage_quartic",
    "read_output",
    "reference_points",
    "reference_quartic",
    "reference_system",
    "save_checkpoint",
    "solve_roots",
    "stats",
    "test_pencil",
    "train",
    "vanishing_cubics",
    "verify_case",
    "write_output",
]
