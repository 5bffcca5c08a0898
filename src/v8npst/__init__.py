"""Perfect state transfer on normal Cayley graphs over the groups V_8n."""

from .group import (
    ConjugacyClass,
    ConnectionSet,
    ConnectionSetError,
    GroupElement,
    GroupParams,
    IdentityInSet,
    NotGenerating,
    NotNormal,
    NotSymmetric,
    conjugacy_classes,
    enumerate_connection_sets,
    validate_connection_set,
)
from .spectrum import SpectrumTable, eigenvalues
from .pst import (
    PstVerdict,
    TypeClassification,
    all_pst_pairs,
    classify_graph_type,
    classify_pair,
    gap_gcd,
)
from .oracle import pst_probe, transition

__all__ = [
    "ConjugacyClass",
    "ConnectionSet",
    "ConnectionSetError",
    "GroupElement",
    "GroupParams",
    "IdentityInSet",
    "NotGenerating",
    "NotNormal",
    "NotSymmetric",
    "PstVerdict",
    "SpectrumTable",
    "TypeClassification",
    "all_pst_pairs",
    "classify_graph_type",
    "classify_pair",
    "conjugacy_classes",
    "eigenvalues",
    "enumerate_connection_sets",
    "gap_gcd",
    "pst_probe",
    "transition",
    "validate_connection_set",
]

__version__ = "0.1.0"
